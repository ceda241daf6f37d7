"""Reproducible experiment runner.

Six suites (carleman, decay, counterexample, sw-gradcheck, sw-flow,
observables), each emitting report.json plus suite CSVs into the output
directory.  A fixed seed makes outputs byte-identical across runs on the
same build and BLAS thread count: the torus suites (sw-gradcheck, sw-flow,
observables) at N >= 8 can write other bytes with 1 OpenBLAS thread than
with 2.  Randomness flows through named counter-based Philox streams keyed by
(seed, task indices), and report serialization is key-sorted with
repr-based float formatting.

Exit codes: 0 all assertions pass (or none apply), 1 assertion failure,
2 configuration/parse error, 3 I/O error.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict, astuple, dataclass, field, fields
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from . import carleman as cl
from . import counterexamples as cx
from . import torus as tw
from .checkpoint import save_checkpoint
from .clifford import fiber_inner
from .errors import FlowInstabilityError, UcpLabError
from .fields import Grid1D, SpinorField, fiber_norm2
from .operators import constant_operator_1d, model_operator_1d
from .perturbations import (Perturbation, admissibility_bound,
                            integrate_zero_data, ucp_condition_check)


@dataclass
class Assertion:
    name: str
    passed: bool
    value: float
    threshold: float
    note: str = ""


@dataclass
class SuiteOutput:
    assertions: List[Assertion] = field(default_factory=list)
    inconclusive: List[str] = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def check(self, name, values, threshold, note="", direction="le"):
        """Gate the worst of the values (a scalar or array-like): the largest
        for an upper bound ("le"), the smallest for a lower bound ("ge").  A
        NaN anywhere is kept, so the check fails (Python's max and min drop
        it).  No values give 0 and inf."""
        le = direction == "le"
        value = float(np.max(values, initial=0.0) if le else np.min(values, initial=math.inf))
        ok = value <= threshold if le else value >= threshold
        self.assertions.append(Assertion(name, bool(ok), value, float(threshold), note))
        return ok


def _rng(*key) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(list(key))))


def _write_csv(path: Path, header, columns):
    """One column per header name, each formatted once: str and int cells as
    they are, others as repr(float); an array column as its Python values."""
    cells = [list(map(repr, col.tolist())) if isinstance(col, np.ndarray)
             else [x if isinstance(x, (str, int)) else repr(float(x)) for x in col]
             for col in columns]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*cells))


def _pointwise_unit(geom: cl.CarlemanGeometry) -> Perturbation:
    # fixed bounded profile with sup |a| = 1
    grid: Grid1D = geom.grid
    a = np.zeros((grid.n, 2), dtype=complex)
    a[:, 0] = np.cos(np.pi * grid.t / geom.T)
    a[:, 1] = 1j * np.sin(np.pi * grid.t / geom.T)
    vals = np.sqrt(fiber_norm2(a))
    return Perturbation.pointwise(SpinorField(grid, a / np.max(vals)))


def _rank_one_l2(geom: cl.CarlemanGeometry) -> Perturbation:
    grid: Grid1D = geom.grid
    a = np.zeros((grid.n, 2), dtype=complex)
    a[:, 0] = np.exp(-((grid.t - 0.3 * geom.T) ** 2) / (2 * (geom.T / 12) ** 2))
    return Perturbation.rank_one(SpinorField(grid, a))


# values of the `perturbation` config key: geometry -> Perturbation
PERTURBATIONS = {"none": lambda geom: Perturbation.zero(), "pointwise": _pointwise_unit,
                 "rank-one": _rank_one_l2}
# Keys whose values a suite cannot run outside a range: (holds, the range stated),
# under the key or, for one suite alone, under (suite, key).  A count of zero
# would leave its gates nothing to check, and they would pass.
_RANGES = {**dict.fromkeys(("N", "samples", "r_points", "configs", "adjoint_pairs",
                            "trials", "appendix_samples"), (lambda v: v >= 1, ">= 1")),
           "n_t": (lambda v: v >= 3, ">= 3"), "dt": (lambda v: v > 0, "> 0"),
           "r_min": (lambda v: v > 0, "> 0"),
           # the weight's (T - t)^2 and the sampler's 2 sig^2 overflow above, underflow below
           "T": (lambda v: 1e-150 <= v <= 1e150, "in [1e-150, 1e150]"),
           # the smallest sizes whose gates pass: below them every run is a suite-error
           "peano_n": (lambda v: v >= 17, ">= 17"),
           "rank_one_n": (lambda v: v >= 8333, ">= 8333"),
           "perturbation": (PERTURBATIONS.__contains__, "in {" + ", ".join(PERTURBATIONS) + "}"),
           # rank-one: P(u) != 0 at t = 0, where every sampler field u vanishes
           ("carleman", "perturbation"): (("none", "pointwise").__contains__, "in {none, pointwise}")}


def _range(suite: str, key: str) -> tuple:
    return _RANGES.get((suite, key)) or _RANGES.get(key, (lambda v: True, ""))


# ---------------------------------------------------------------------------
# suite runners


def run_carleman(opts: dict, seed: int, out: Path) -> SuiteOutput:
    res = SuiteOutput()
    geom = cl.CarlemanGeometry.interval(opts["T"], opts["n_t"])
    op = model_operator_1d(geom.grid)
    R_grid = np.logspace(math.log10(opts["r_min"]), math.log10(opts["r_max"]),
                         opts["r_points"])
    pert = PERTURBATIONS[opts["perturbation"]](geom)
    sampler = cl.cutoff_bump_sampler(geom)

    sweep = cl.constant_sweep(op, sampler, R_grid, geom, n_samples=opts["samples"],
                              perturbation=pert, seed=seed)
    rows = []
    for rep, est, conclusive in zip(sweep.reports, sweep.estimates, sweep.conclusive):
        rows.append([rep.R, geom.T, rep.log_lhs, rep.log_rhs, rep.ratio, est,
                     "conclusive" if conclusive else "inconclusive"])
        if rep.R < cl.R_SUFFICIENT:
            res.inconclusive.append(f"R={rep.R:g} below the large-parameter regime")
        elif not conclusive:
            res.inconclusive.append(f"R={rep.R:g} no finite sampled ratio")
    _write_csv(out / "carleman.csv",
               ["R", "T", "log_lhs", "log_rhs", "ratio", "constant_estimate", "status"],
               zip(*rows))

    R_concl = sweep.R_grid[sweep.conclusive]
    if sweep.degenerate:
        res.inconclusive.append("degenerate sweep: all sampled ratios undefined")
    elif R_concl.size >= 3 and R_concl[-1] / R_concl[0] >= 100.0:
        res.check("constant-boundedness-spread", sweep.spread, 2.0,
                  note="max/min of the per-R constant estimate over the sweep")
    else:
        res.inconclusive.append("R grid too short for the boundedness assertion")
    res.summary["spread"] = sweep.spread
    res.summary["bounded"] = sweep.bounded
    res.summary["degenerate"] = sweep.degenerate

    if opts["perturbation"] == "pointwise":
        defects = []
        for i in range(5):
            v = sampler(_rng(seed, 977, i))
            rep = cl.carleman_ratio(op, pert, v, float(R_grid[0]), geom)
            # P(v)(x) = <v(x), a(x)> v(x), so C0 = max |<v(x), a(x)>| where v(x) != 0
            omega = np.abs(fiber_inner(v.values, pert.a.values))[v.fiber_abs() > 0]
            defects.append(abs(rep.c0 - float(np.max(omega))))
        res.check("admissibility-constant-consistency", defects, 1e-10,
                  note="reported C0 vs the closed form max |<v(x), a(x)>| over v(x) != 0")

    _carleman_appendix(res, out, seed, opts["appendix_samples"])
    return res


def _carleman_appendix(res: SuiteOutput, out: Path, seed: int, n_samples: int):
    geom = cl.CarlemanGeometry.interval(0.1, 1025)
    op = model_operator_1d(geom.grid)
    sampler = cl.cutoff_bump_sampler(geom)
    pert = _pointwise_unit(geom)
    defects, rows = [], []
    for i in range(n_samples):
        rng = _rng(seed, 31, i)
        v = sampler(rng)
        R = float(rng.uniform(10.0, 100.0))
        rec = cl.appendix_decomposition(op, pert, v, R, geom)
        defects.append(rec.identity_defect)
        rows.append([R, rec.j0, rec.j1, rec.j_skew, rec.j_sym, rec.j_mix,
                     rec.identity_defect, rec.mix_residual])
    _write_csv(out / "appendix.csv",
               ["R", "J0", "J1", "J_skew", "J_sym", "J_mix", "identity_defect",
                "mix_residual"], zip(*rows))
    res.check("appendix-identity-defect", defects, 1e-10,
              note=f"worst relative defect of J1 = Jskew+Jsym+Jmix over {n_samples} inputs")

    # constant-coefficient, skew-free case: the mix residual vanishes with the grid
    defects, hs = [], []
    for n in (257, 513, 1025, 2049):
        g = cl.CarlemanGeometry.interval(0.1, n)
        cop = constant_operator_1d(g.grid)
        v = cl.cutoff_bump_sampler(g)(_rng(seed, 77))
        rec = cl.appendix_decomposition(cop, Perturbation.zero(), v, 50.0, g)
        defects.append(abs(rec.mix_residual))
        hs.append(g.grid.spacing)
    slope = float(np.polyfit(np.log(hs), np.log(defects), 1)[0])
    res.summary["appendix_mix_convergence_order"] = slope
    res.check("appendix-mix-order", slope, 1.9, direction="ge",
              note="convergence order of |Jmix - R J0 - Jskew.pert| (C = 0, constant B)")


def run_decay(opts: dict, seed: int, out: Path) -> SuiteOutput:
    res = SuiteOutput()
    geom = cl.CarlemanGeometry.interval(opts["T"], opts["n_t"])
    op = model_operator_1d(geom.grid)
    pert = PERTURBATIONS[opts["perturbation"]](geom)
    u = integrate_zero_data(op, pert, u0=np.array([opts["seed_amplitude"], 0.0], dtype=complex))
    R_grid = np.logspace(math.log10(opts["r_min"]), math.log10(opts["r_max"]),
                         opts["r_points"])
    report = cl.ucp_decay_check(op, pert, u, R_grid, geom, seed=seed)

    _write_csv(out / "decay.csv", ["R", "log_bound", "conclusive", "passed"],
               zip(*[[r.R, r.log_bound, str(r.conclusive), str(r.passed)]
                     for r in report.rows]))
    res.summary.update({
        "constant": report.constant, "c0": report.c0, "crossover": report.crossover,
        "measured": report.measured, "cutoff_integral": report.cutoff_integral,
        "slope": report.slope, "analytic_slope": report.analytic_slope,
    })
    if report.inconclusive:
        res.inconclusive.append("no grid point beyond the admissibility crossover")
        return res
    res.check("decay-slope-deviation", report.slope_rel_dev, 0.01,
              note="relative deviation of the fitted log-slope from -21 T^2/100")
    res.check("decay-bound-dominates", 0.0 if report.passed else 1.0, 0.5,
              note="measured inner mass below the bound at every conclusive R")
    return res


def run_counterexample(opts: dict, seed: int, out: Path) -> SuiteOutput:
    res = SuiteOutput()
    plot = out / "plotdata"
    plot.mkdir(exist_ok=True)

    for case in ("sqrt", "two-thirds"):
        sol = cx.peano_branches(case, c=1.0, grid=Grid1D.uniform(4.0, opts["peano_n"]))
        _write_csv(plot / f"peano_{case}.csv", ["x", "u0", "u1"],
                   [sol.grid.t, sol.u0, sol.u1])
        res.check(f"peano-{case}-residual", [sol.residual0, sol.residual1], 1e-6)
        res.check(f"peano-{case}-separation", sol.separation_sup, 1e-4, direction="ge")

    sol, a = cx.rank_one_counterexample(grid=Grid1D.uniform(2.0, opts["rank_one_n"]))
    _write_csv(plot / "rank_one.csv", ["x", "u0", "u1"], [sol.grid.t, sol.u0, sol.u1])
    grid = sol.grid
    pairing = cx._pairing(grid.quad_weights(), sol.u1, a)
    res.check("rank-one-pairing", abs(pairing - 1.0), 1e-8, note="<u, a> = 1")
    res.check("rank-one-endpoint", abs(sol.u1[-1] - math.sqrt(2.0)), 1e-8,
              note="u(2) = sqrt(2)")
    res.check("rank-one-residual", sol.residual1, 1e-6)

    a_field = SpinorField(grid, a[:, None].astype(complex))
    bump = np.exp(-((grid.t - 0.5) ** 2) / (2 * 0.1 ** 2)) * (grid.t <= 0.9)
    u_field = SpinorField(grid, bump[:, None].astype(complex))
    verdict = ucp_condition_check(a_field, u_field)
    res.check("rank-one-condition-neither",
              0.0 if verdict.verdict == "neither" else 1.0, 0.5,
              note=f"verdict {verdict.verdict}")
    eig = np.exp(1j * 3.0 * grid.t)
    eig_field = SpinorField(grid, np.stack([eig, 0 * eig], axis=1) / math.sqrt(2))
    verdict_i = ucp_condition_check(eig_field, u_field)
    res.check("eigenspinor-condition-i",
              0.0 if verdict_i.verdict == "condition-i" else 1.0, 0.5,
              note=f"verdict {verdict_i.verdict}")
    return res


def run_sw_gradcheck(opts: dict, seed: int, out: Path) -> SuiteOutput:
    res = SuiteOutput()
    lat = tw.TorusLattice(opts["N"])
    params = tw.default_params(lat)
    hs = np.array([1e-2, 1e-3, 1e-4])
    rows, orders = [], []
    for case in ("unperturbed", "case1", "case2"):
        for i in range(opts["configs"]):
            rng = _rng(seed, 11, i)
            config = tw.random_config(lat, rng, amplitude=opts["amplitude"])
            direction = tw.random_tangent(lat, rng)
            grad = tw.grad_csd(config, params, case)
            pair = tw.tangent_inner(grad, direction, lat)
            errs = []
            for h in hs:
                plus = tw.csd(config.shifted(direction, h), params, case)
                minus = tw.csd(config.shifted(direction, -h), params, case)
                errs.append(abs((plus - minus) / (2 * h) - pair) / max(abs(pair), 1e-30))
            order = float(np.polyfit(np.log(hs), np.log(np.maximum(errs, 1e-300)), 1)[0])
            orders.append(order)
            for h, e in zip(hs, errs):
                rows.append([case, i, h, e, order])
    _write_csv(out / "sw_gradcheck.csv", ["case", "config", "h", "rel_err", "order"],
               zip(*rows))
    res.check("gradient-convergence-order", orders, 1.9,
              direction="ge", note="worst central-difference order across cases")

    config = tw.random_config(lat, _rng(seed, 12), amplitude=0.3)
    lin = tw.linearize(config, params)
    defects = []
    for i in range(opts["adjoint_pairs"]):
        rng = _rng(seed, 13, i)
        x = tw.random_tangent(lat, rng)
        y = tw.SystemTriple(rng.standard_normal(config.psi.shape[1:]),
                            rng.standard_normal(config.alpha.shape),
                            rng.standard_normal(config.psi.shape)
                            + 1j * rng.standard_normal(config.psi.shape))
        lhs = lin.pairing_out(lin.apply(x), y)
        rhs = tw.tangent_inner(x, lin.adjoint(y), lat)
        defects.append(abs(lhs - rhs) / max(1.0, abs(lhs)))
    res.check("adjoint-identity", defects, 1e-10,
              note="relative defect of <Lx, y> = <x, L*y> over random pairs")

    rng = _rng(seed, 14)
    phi = (rng.standard_normal(config.psi.shape)
           + 1j * rng.standard_normal(config.psi.shape))
    adm = admissibility_bound(lin.case1, lin.case1_field(phi))
    ok = adm.admissible and (adm.c0 or 0.0) <= lin.case1_witness_c0 * (1 + 1e-10)
    res.check("case1-pure-spinor-admissible", 0.0 if ok else 1.0, 0.5,
              note=f"sampled C0 {adm.c0} vs witness {lin.case1_witness_c0}")
    res.summary["case1_witness_c0"] = lin.case1_witness_c0
    res.summary["mixed_coefficient"] = lin.mixed_coefficient

    floer = tw.floer_norm(params)
    rel = floer.remainder_bound / floer.value if 0.0 < floer.value < math.inf else math.nan
    res.check("floer-norm", rel, 1e-4,
              note="truncation remainder bound over the finite Floer norm of p1 + p2 + p3")
    res.summary["floer_norm"] = floer.value
    res.summary["floer_remainder"] = floer.remainder_bound
    return res


def run_sw_flow(opts: dict, seed: int, out: Path) -> SuiteOutput:
    res = SuiteOutput()
    lat = tw.TorusLattice(opts["N"])
    plot = out / "plotdata"
    plot.mkdir(exist_ok=True)
    for trial in range(opts["trials"]):
        config = tw.random_config(lat, _rng(seed, 21, trial), amplitude=opts["amplitude"])
        flow = tw.run_flow(config, None, "unperturbed", dt=opts["dt"],
                           steps=opts["max_steps"], scheme="semi-implicit",
                           residual_target=1e-6)
        _write_csv(plot / f"flow_{trial}.csv", [f.name for f in fields(tw.FlowRecord)],
                   zip(*map(astuple, flow.trajectory)))
        final_res = max(flow.trajectory[-1].residual_curvature,
                        flow.trajectory[-1].residual_dirac)
        res.check(f"flow-{trial}-residual", final_res, 1e-6)
        res.check(f"flow-{trial}-psi-bound", flow.config.sup_psi_sq(), 1e-4)
        if trial == 0:
            save_checkpoint(flow.config, out / "flow_final.ckpt")

    config = tw.random_config(lat, _rng(seed, 22), amplitude=opts["amplitude"])
    vals = [r.csd for r in tw.run_flow(config, None, "unperturbed", dt=5e-3, steps=100,
                                       scheme="explicit").trajectory]
    monotone = all(b <= a + 1e-12 * (1 + abs(a)) for a, b in zip(vals, vals[1:]))
    res.check("explicit-flow-monotone", 0.0 if monotone else 1.0, 0.5,
              note="csd non-increasing along 100 explicit steps")

    # positive curl eigenfield: an oversized explicit step must overshoot upward
    beltrami = tw.SWConfiguration.zero(lat)
    beltrami.alpha[1] = 1e-3 * np.cos(lat.x[0])
    beltrami.alpha[2] = -1e-3 * np.sin(lat.x[0])
    try:
        tw.run_flow(beltrami, None, "unperturbed", dt=1e3, steps=1, scheme="explicit")
        caught = False
    except FlowInstabilityError:
        caught = True
    res.check("instability-detected", 0.0 if caught else 1.0, 0.5,
              note="oversized explicit step raises the typed error")
    return res


def run_observables(opts: dict, seed: int, out: Path) -> SuiteOutput:
    res = SuiteOutput()
    lat = tw.TorusLattice(opts["N"])
    params = tw.default_params(lat)
    zeta_moves, eta_moves, tau_moves, imag_parts, rows = [], [], [], [], []
    for trial in range(opts["trials"]):
        rng = _rng(seed, 41, trial)
        config = tw.random_config(lat, rng, amplitude=opts["amplitude"])
        obs = tw.observables(config, params)
        imag_parts.append(np.abs(np.imag(tw.zeta_pairings(config, params.nus))))

        f = rng.standard_normal((lat.n,) * 3)
        f -= f.mean()
        gauged = tw.gauge_apply(config, f=f, winding=(1, 0, 0))
        obs_g = tw.observables(gauged, params)
        zeta_moves.append(np.abs(obs_g.zeta - obs.zeta))

        gauged_h = tw.gauge_apply(config, f=f)
        obs_h = tw.observables(gauged_h, params)
        eta_moves.append(np.abs(obs_h.eta - obs.eta))

        # direct-quadrature oracle for the winding shift of tau
        shift_measured = obs_g.tau - obs.tau
        wvec = np.array([1.0, 0.0, 0.0])
        oracle = np.array([
            2.0 * float(np.sum(sum(wvec[j] * m[j] for j in range(3))))
            * lat.volume_element for m in params.mus])
        tau_moves.append(np.abs(shift_measured - oracle))
        rows.append([trial] + [x for x in obs.tau] + [x for x in obs.zeta]
                    + [abs(x) for x in obs.eta])
    header = (["trial"] + [f"tau{j}" for j in range(params.n_tau)]
              + [f"zeta{j}" for j in range(params.n_zeta)]
              + [f"abs_eta{j}" for j in range(params.n_eta)])
    _write_csv(out / "observables.csv", header, zip(*rows))
    res.check("zeta-gauge-invariance", zeta_moves, 1e-10)
    res.check("zeta-real-valued", imag_parts, 1e-12)
    res.check("eta-mean-zero-invariance", eta_moves, 1e-8)
    res.check("tau-winding-shift", tau_moves, 1e-8,
              note="measured shift vs direct quadrature")
    return res


SUITES: Dict[str, tuple] = {
    "carleman": ("weighted-inequality constant sweep plus the J-term identity checks",
                 {"T": 0.1, "n_t": 2049, "r_min": 10.0, "r_max": 1000.0, "r_points": 7,
                  "samples": 20, "perturbation": "none", "appendix_samples": 50},
                 run_carleman),
    "decay": ("continuation decay bound: slope and bound-domination checks",
              {"T": 0.1, "n_t": 4097, "r_min": 1e5, "r_max": 1e7, "r_points": 7,
               "perturbation": "none", "seed_amplitude": 1e-12},
              run_decay),
    "counterexample": ("branching ODE solutions and the rank-one continuation failure",
                       {"peano_n": 4097, "rank_one_n": 16385},
                       run_counterexample),
    "sw-gradcheck": ("functional/gradient consistency, adjoint identity, admissibility",
                     {"N": 4, "configs": 10, "amplitude": 0.3, "adjoint_pairs": 20},
                     run_sw_gradcheck),
    "sw-flow": ("each trial a semi-implicit descent to critical points; one explicit "
                "100-step march of the ill-posed downward flow, gated on csd",
                {"N": 4, "trials": 5, "amplitude": 1e-4, "dt": 3.0, "max_steps": 400},
                run_sw_flow),
    "observables": ("gauge behaviour of the observable families",
                    {"N": 4, "trials": 5, "amplitude": 0.5},
                    run_observables),
}


# ---------------------------------------------------------------------------
# configuration parsing and entry points


def parse_config_text(text: str) -> dict:
    """Flat key = value lines; '#' comments; ints, floats, quoted strings and
    bare strings."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ValueError(f"line {lineno}: empty key")
        out[key] = _coerce(value, lineno)
    return out


def _coerce(value: str, lineno: int):
    if len(value) >= 2 and value[0] == value[-1] and value[0] in "'\"":
        return value[1:-1]
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        pass
    if not value:
        raise ValueError(f"line {lineno}: empty value")
    return value


def build_options(suite: str, config: dict, seed: Optional[int]) -> dict:
    """The suite's defaults and seed 42 overlaid with the config keys and the
    --seed value, as one dict.  Each value must have its default's type (an
    int default takes an int >= 0, a float default a finite int or float, a
    str default only a str) and hold its _RANGES entry; it is stored as its
    default's type.  A ValueError names the first key that fails, or the seed
    when the file and the flag both set it."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; see 'ucp-lab list'")
    named = config.get("suite", suite)
    if named != suite:
        raise ValueError(f"config file names suite {named!r}, got {suite!r}")
    if seed is not None:
        if "seed" in config:
            raise ValueError("config key 'seed' and the --seed flag both set the seed")
        config = {**config, "seed": seed}
    opts = {**SUITES[suite][1], "seed": 42}
    for key, value in config.items():
        if key == "suite":
            continue
        if key not in opts:
            raise ValueError(f"unknown config key {key!r} for suite {suite}")
        default = opts[key]
        if isinstance(default, int):
            ok = isinstance(value, int) and value >= 0
        elif isinstance(default, float):  # the bound also rejects an int no float holds
            ok = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
        else:
            ok = isinstance(value, str)
        holds, stated = _range(suite, key)
        if not (ok and holds(value)):
            kind = {int: "an int", float: "a finite number", str: "a string"}[type(default)]
            rule = f"{kind} {stated or ('>= 0' if type(default) is int else '')}".rstrip()
            raise ValueError(f"config key {key!r} takes {rule}, got {value!r}")
        opts[key] = type(default)(value)
    if "r_max" in opts and opts["r_max"] < opts["r_min"]:
        raise ValueError(f"config key 'r_max' takes a value >= r_min = {opts['r_min']!r}, "
                         f"got {opts['r_max']!r}")
    # the weight's exponent R (T - t)^2 reaches r_max T^2, which must be a float
    if "r_max" in opts and math.isinf(opts["r_max"] * opts["T"] ** 2):
        raise ValueError(f"config key 'r_max' takes a value with r_max * T^2 finite at "
                         f"T = {opts['T']!r}, got {opts['r_max']!r}")
    return opts


def run(suite: str, config_file: Optional[str] = None, seed: Optional[int] = None,
        out_dir: str = "ucp_lab_out") -> int:
    try:
        config = {} if config_file is None else parse_config_text(Path(config_file).read_text())
        opts = build_options(suite, config, seed)
        seed = opts.pop("seed")
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        try:
            result = SUITES[suite][2](opts, seed, out)
        except (UcpLabError, ValueError) as exc:
            result = SuiteOutput([Assertion("suite-error", False, 1.0, 0.5, str(exc))])
        passed = all(a.passed for a in result.assertions)
        report = {"suite": suite, "seed": seed, "config": opts, "passed": passed,
                  "assertions": [asdict(a) for a in result.assertions],
                  "inconclusive": result.inconclusive, "summary": result.summary}
        (out / "report.json").write_text(json.dumps(report, sort_keys=True, indent=1) + "\n")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return 3
    for a in result.assertions:
        print(f"[{'PASS' if a.passed else 'FAIL'}] {suite}: {a.name} "
              f"(value {a.value:g}, threshold {a.threshold:g})")
    for note in result.inconclusive:
        print(f"[INCONCLUSIVE] {suite}: {note}")
    return 0 if passed else 1


def list_suites() -> int:
    for name in SUITES:
        description, defaults, _ = SUITES[name]
        print(f"{name}: {description}")
        for key in sorted(defaults):
            stated = _range(name, key)[1]
            print(f"    {key} = {defaults[key]!r}{f'  ({stated})' if stated else ''}")
    print("common keys: seed (int >= 0, default 42, or --seed), suite (must match --suite)")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="ucp-lab",
                                     description="continuation-laboratory experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run one experiment suite")
    runp.add_argument("--suite", required=True)
    runp.add_argument("--config", default=None)
    runp.add_argument("--seed", type=int, default=None)
    runp.add_argument("--out", default="ucp_lab_out")
    sub.add_parser("list", help="list suites and their configuration keys")

    args = parser.parse_args(argv)
    if args.command == "list":
        return list_suites()
    return run(args.suite, args.config, args.seed, args.out)


if __name__ == "__main__":
    sys.exit(main())
