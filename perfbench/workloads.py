"""The benchmark's three workloads: set-up, one item, and the item's checks.

An item is one small study built from the public calls the CLI suites make.
Every call into a layer module goes through ``tr.call`` with a span name
``<module>.<function>``; constructing the modules' value types
(``SWConfiguration``, ``Tangent``, ``SystemTriple``, ``SpinorField``, grids,
geometries, ``Perturbation``) counts as building inputs, not as a layer call.

Inputs come from counter-based Philox streams.  Item ``i`` of a run with seed
``s`` draws from the stream keyed ``(s, i)``.  Its first draw picks one of
``POOL`` reference entries, whose own stream ``(POOL_KEY, k)`` supplies every
input whose outputs are compared against ``references.json``; the rest of the
item's inputs come from ``(s, i)`` and are checked by oracles only.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from ucp_lab import carleman as cl
from ucp_lab import checkpoint as ck
from ucp_lab import counterexamples as cx
from ucp_lab import operators as ops
from ucp_lab import perturbations as pt
from ucp_lab import torus as tw
from ucp_lab.fields import Grid1D, SpinorField

POOL = 32
POOL_KEY = 20020
# Admits a changed summation order (relative changes near 1e-14) but not a
# changed result.
REF_RTOL = 1e-9

SIZES = {
    "torus": {"N": 8},
    "interval": {"T": 0.1, "sweep_n_t": 2049, "r_points": 7, "samples": 4,
                 "ode_n_t": 257, "appendix_n_t": 1025, "appendix_records": 2,
                 "peano_n": 4097, "rank_one_n": 131073},
    "annulus": {"T": 0.5, "n_t": 129, "n_theta": 64, "r_points": 3, "samples": 1,
                "appendix_R": 20.0},
}

# Spans, by the phase they occur in.  Every name is reported on every
# workload, with zero calls where the workload does not make it.
SETUP_SPANS = (
    "torus.TorusLattice",
    "torus.default_params",
    "operators.model_operator_1d",
    "operators.annulus_operator",
    "carleman.cutoff_bump_sampler",
)
ITEM_SPANS = (
    "torus.grad_csd",
    "torus.csd",
    "torus.linearize",
    "torus.linearize.apply",
    "torus.linearize.adjoint",
    "torus.observables",
    "torus.gauge_apply",
    "torus.run_flow",
    "checkpoint.save_checkpoint",
    "checkpoint.load_checkpoint",
    "carleman.cutoff_bump_sampler.sample",
    "carleman.constant_sweep",
    "carleman.ucp_decay_check",
    "carleman.appendix_decomposition",
    "perturbations.integrate_zero_data.pointwise",
    "perturbations.integrate_zero_data.rank_one",
    "counterexamples.peano_branches",
    "counterexamples.rank_one_counterexample",
)
# Counts computed from sizes and returned arrays: per set-up, or per item.
SETUP_COUNTS = ("torus.lattice_points", "operators.annulus_operator.slice_bytes")
ITEM_COUNTS = ("perturbations.integrate_zero_data.rk4_steps",
               "carleman.constant_sweep.evals")

JTERMS = ("R", "j0", "j1", "j_skew", "j_sym", "j_mix", "j3", "j_skew_pert",
          "j_sym_pert", "j_err")
CD_STEPS = (1e-3, 1e-4)


def stream(*key) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(list(key))))


def item_stream(seed: int, i: int):
    """The item's own stream and the reference entry it draws first."""
    rng = stream(seed, i)
    return rng, int(rng.integers(POOL))


@dataclass
class ItemResult:
    failures: list                                # names of failed oracle checks
    scalars: dict                                 # reference-compared values
    counts: dict = field(default_factory=dict)    # computed counts of this item
    spread: float = math.nan                      # sweep max/min, not gated


def _check(failures, name, ok):
    if not ok:
        failures.append(name)


def _torus_fields(rng, n, amplitude):
    real = amplitude * rng.standard_normal((3, n, n, n))
    spinor = amplitude * (rng.standard_normal((2, n, n, n))
                          + 1j * rng.standard_normal((2, n, n, n)))
    return real, spinor


def checkpoint_path(scratch):
    """Where the torus items of this process write their checkpoint."""
    return scratch / f"ckpt-{os.getpid()}.bin"


def _finite(*arrays):
    return all(bool(np.all(np.isfinite(a))) for a in arrays)


# ---------------------------------------------------------------------------
# torus: the spectral monopole layer and checkpoints


def setup_torus(tr, sz, scratch):
    lat = tr.call("torus.TorusLattice", tw.TorusLattice, sz["N"])
    params = tr.call("torus.default_params", tw.default_params, lat)
    points = lat.n ** 3
    return SimpleNamespace(
        lat=lat, params=params, ckpt=checkpoint_path(scratch),
        counts={"torus.lattice_points": points},
        state_bytes={"torus_config_bytes": points * (3 * 8 + 2 * 16)})


def item_torus(tr, st, rng, k):
    lat, params, n = st.lat, st.params, st.lat.n
    dv = lat.volume_element
    fails = []

    # case2 gradient against two central-difference csd pairs
    ref = stream(POOL_KEY, k)
    alpha, psi = _torus_fields(ref, n, 0.3)
    d_alpha, d_phi = _torus_fields(ref, n, 1.0)
    config = tw.SWConfiguration(lat, alpha, psi)
    grad = tr.call("torus.grad_csd", tw.grad_csd, config, params, "case2")
    pairing = float(np.sum(grad.alpha * d_alpha)
                    + np.sum(grad.phi * np.conj(d_phi)).real) * dv
    csds, errs = [], []
    for h in CD_STEPS:
        pair = [tr.call("torus.csd", tw.csd,
                        tw.SWConfiguration(lat, alpha + s * h * d_alpha,
                                           psi + s * h * d_phi), params, "case2")
                for s in (1.0, -1.0)]
        csds += pair
        errs.append(abs((pair[0] - pair[1]) / (2 * h) - pairing) / abs(pairing))
    order = (math.log(max(errs[0], 1e-300) / max(errs[1], 1e-300))
             / math.log(CD_STEPS[0] / CD_STEPS[1]))
    _check(fails, "gradient-central-difference-order", order >= 1.9)

    # adjoint identity of the linearization
    x_alpha, x_phi = _torus_fields(rng, n, 1.0)
    y_scalar = rng.standard_normal((n, n, n))
    y_form, y_spinor = _torus_fields(rng, n, 1.0)
    lin = tr.call("torus.linearize", tw.linearize, config, params)
    lx = tr.call("torus.linearize.apply", lin.apply, tw.Tangent(x_alpha, x_phi))
    ly = tr.call("torus.linearize.adjoint", lin.adjoint,
                 tw.SystemTriple(y_scalar, y_form, y_spinor))
    lhs = float(np.sum(lx.scalar * y_scalar) + np.sum(lx.one_form * y_form)
                + np.sum(lx.spinor * np.conj(y_spinor)).real) * dv
    rhs = float(np.sum(x_alpha * ly.alpha) + np.sum(x_phi * np.conj(ly.phi)).real) * dv
    _check(fails, "adjoint-identity", abs(lhs - rhs) / max(1.0, abs(lhs)) <= 1e-10)

    # zeta is invariant under a gauge transformation with winding
    f = rng.standard_normal((n, n, n))
    f -= f.mean()
    obs = tr.call("torus.observables", tw.observables, config, params)
    gauged = tr.call("torus.gauge_apply", tw.gauge_apply, config, f=f, winding=(1, 0, 0))
    obs_g = tr.call("torus.observables", tw.observables, gauged, params)
    _check(fails, "zeta-gauge-invariance",
           float(np.max(np.abs(obs_g.zeta - obs.zeta))) <= 1e-10)

    # two semi-implicit flow steps, then a checkpoint round trip
    start = tw.SWConfiguration(lat, *_torus_fields(rng, n, 1e-4))
    flow = tr.call("torus.run_flow", tw.run_flow, start, None, "unperturbed",
                   dt=3.0, steps=2, scheme="semi-implicit")
    final = flow.config
    _check(fails, "flow-finite",
           _finite(final.alpha, final.psi, [r.csd for r in flow.trajectory]))
    tr.call("checkpoint.save_checkpoint", ck.save_checkpoint, final, st.ckpt)
    back, _header = tr.call("checkpoint.load_checkpoint", ck.load_checkpoint, st.ckpt)
    scale = max(float(np.max(np.abs(final.alpha))), float(np.max(np.abs(final.psi))))
    err = max(float(np.max(np.abs(back.alpha - final.alpha))),
              float(np.max(np.abs(back.psi - final.psi))))
    _check(fails, "checkpoint-round-trip", err <= 1e-12 * scale)
    return ItemResult(fails, {"csd": csds, "pairing": [pairing]})


# ---------------------------------------------------------------------------
# interval: 1-D sweeps, zero-data integration, decay, J-terms, counterexamples


def _pointwise_unit(geom):
    """Bounded pointwise perturbation with sup |a| = 1 (as the decay suite)."""
    t, T = geom.grid.t, geom.T
    a = np.stack([np.cos(np.pi * t / T), 1j * np.sin(np.pi * t / T)], axis=1)
    return pt.Perturbation.pointwise(SpinorField(geom.grid, a))


def _rank_one_bump(geom):
    """Rank-one perturbation with a Gaussian carrier (as the decay suite)."""
    t, T = geom.grid.t, geom.T
    a = np.zeros((t.size, 2), dtype=complex)
    a[:, 0] = np.exp(-((t - 0.3 * T) ** 2) / (2 * (T / 12) ** 2))
    return pt.Perturbation.rank_one(SpinorField(geom.grid, a))


def _interval_geometry(tr, T, n):
    geom = cl.CarlemanGeometry.interval(T, n)
    return geom, tr.call("operators.model_operator_1d", ops.model_operator_1d, geom.grid)


def setup_interval(tr, sz, scratch):
    T = sz["T"]
    geom_s, op_s = _interval_geometry(tr, T, sz["sweep_n_t"])
    geom_o, op_o = _interval_geometry(tr, T, sz["ode_n_t"])
    geom_a, op_a = _interval_geometry(tr, T, sz["appendix_n_t"])
    return SimpleNamespace(
        geom_s=geom_s, op_s=op_s,
        sampler_s=tr.call("carleman.cutoff_bump_sampler", cl.cutoff_bump_sampler, geom_s),
        R_sweep=np.logspace(1, 3, sz["r_points"]), samples=sz["samples"],
        geom_o=geom_o, op_o=op_o, P_point=_pointwise_unit(geom_o),
        P_rank=_rank_one_bump(geom_o), R_decay=np.logspace(5, 7, 7),
        geom_a=geom_a, op_a=op_a, P_a=_pointwise_unit(geom_a),
        sampler_a=tr.call("carleman.cutoff_bump_sampler", cl.cutoff_bump_sampler, geom_a),
        records=sz["appendix_records"],
        peano_grid=Grid1D.uniform(4.0, sz["peano_n"]),
        rank_one_grid=Grid1D.uniform(2.0, sz["rank_one_n"]),
        counts={},
        state_bytes={"interval_sweep_field_bytes": sz["sweep_n_t"] * 2 * 16,
                     "interval_rank_one_grid_bytes": sz["rank_one_n"] * 8})


def _sweep(tr, fails, st, geom, op, sampler, seed):
    sweep = tr.call("carleman.constant_sweep", cl.constant_sweep, op, sampler,
                    st.R_sweep, geom, n_samples=st.samples, seed=seed)
    est = sweep.estimates
    _check(fails, "sweep-finite-positive", _finite(est) and bool(np.all(est > 0)))
    return sweep


def _appendix(tr, fails, op, P, sampler, geom, ref, R):
    v = tr.call("carleman.cutoff_bump_sampler.sample", sampler, ref)
    rec = tr.call("carleman.appendix_decomposition", cl.appendix_decomposition,
                  op, P, v, R, geom)
    _check(fails, "j-term-identity", rec.identity_defect <= 1e-10)
    return [float(getattr(rec, name)) for name in JTERMS]


def item_interval(tr, st, rng, k):
    fails = []
    ref = stream(POOL_KEY, k)
    sweep = _sweep(tr, fails, st, st.geom_s, st.op_s, st.sampler_s,
                   int(ref.integers(2 ** 31)))
    scalars = {"sweep": [float(e) for e in sweep.estimates]}

    direction = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    u0 = rng.uniform(0.5, 2.0) * 1e-12 * direction / np.linalg.norm(direction)
    u_point = tr.call("perturbations.integrate_zero_data.pointwise",
                      pt.integrate_zero_data, st.op_o, st.P_point, u0=u0)
    u_rank = tr.call("perturbations.integrate_zero_data.rank_one",
                     pt.integrate_zero_data, st.op_o, st.P_rank, u0=u0)
    _check(fails, "integration-finite", _finite(u_point.values, u_rank.values))
    decay = tr.call("carleman.ucp_decay_check", cl.ucp_decay_check, st.op_o,
                    st.P_point, u_point, st.R_decay, st.geom_o,
                    seed=int(rng.integers(2 ** 31)))
    _check(fails, "decay-passed", decay.passed and not decay.inconclusive)
    _check(fails, "decay-slope-deviation", decay.slope_rel_dev <= 0.01)

    for j in range(st.records):
        scalars[f"appendix{j}"] = _appendix(tr, fails, st.op_a, st.P_a, st.sampler_a,
                                            st.geom_a, ref, float(ref.uniform(10.0, 100.0)))

    peano = tr.call("counterexamples.peano_branches", cx.peano_branches, "sqrt",
                    c=1.0, grid=st.peano_grid)
    _check(fails, "peano-residual", max(peano.residual0, peano.residual1) <= 1e-6)
    sol, _a = tr.call("counterexamples.rank_one_counterexample",
                      cx.rank_one_counterexample, grid=st.rank_one_grid)
    _check(fails, "rank-one-residual", sol.residual1 <= 1e-6)
    _check(fails, "rank-one-endpoint", abs(sol.u1[-1] - math.sqrt(2.0)) <= 1e-8)

    counts = {"perturbations.integrate_zero_data.rk4_steps":
              (u_point.grid.n - 1) + (u_rank.grid.n - 1),
              "carleman.constant_sweep.evals": sweep.R_grid.size * st.samples}
    return ItemResult(fails, scalars, counts, sweep.spread)


# ---------------------------------------------------------------------------
# annulus: the same carleman calls on dense 2-D slice operators


def setup_annulus(tr, sz, scratch):
    geom = cl.CarlemanGeometry.annulus(sz["T"], sz["n_t"], sz["n_theta"])
    op = tr.call("operators.annulus_operator", ops.annulus_operator, geom.grid)
    slice_bytes = op.B.nbytes + op.C.nbytes
    return SimpleNamespace(
        geom=geom, op=op,
        sampler=tr.call("carleman.cutoff_bump_sampler", cl.cutoff_bump_sampler, geom),
        R_sweep=np.logspace(1, 3, sz["r_points"]), samples=sz["samples"],
        R_appendix=sz["appendix_R"], P=pt.Perturbation.zero(),
        counts={"operators.annulus_operator.slice_bytes": slice_bytes},
        state_bytes={"annulus_slice_bytes": slice_bytes})


def item_annulus(tr, st, rng, k):
    fails = []
    ref = stream(POOL_KEY, k)
    sweep = _sweep(tr, fails, st, st.geom, st.op, st.sampler, int(ref.integers(2 ** 31)))
    scalars = {"sweep": [float(e) for e in sweep.estimates],
               "appendix0": _appendix(tr, fails, st.op, st.P, st.sampler, st.geom,
                                      ref, st.R_appendix)}
    counts = {"carleman.constant_sweep.evals": sweep.R_grid.size * st.samples}
    return ItemResult(fails, scalars, counts, sweep.spread)


WORKLOADS = {
    "torus": (setup_torus, item_torus),
    "interval": (setup_interval, item_interval),
    "annulus": (setup_annulus, item_annulus),
}


def reference_failures(scalars, reference):
    """Names of the scalar groups that moved from the recorded reference by
    more than REF_RTOL of the group's largest recorded magnitude."""
    out = []
    for group, values in scalars.items():
        want = reference.get(group)
        if want is None or len(want) != len(values):
            out.append(f"reference-{group}-missing")
            continue
        tol = REF_RTOL * max(abs(w) for w in want)
        if any(not abs(v - w) <= tol for v, w in zip(values, want)):
            out.append(f"reference-{group}")
    return out


def record_references(workload, sizes, scratch, tr):
    """Reference scalars of every pool entry, computed by the current code."""
    setup, item = WORKLOADS[workload]
    state = setup(tr, sizes, scratch)
    rng = stream(POOL_KEY, 2 ** 31)
    out = []
    try:
        for k in range(POOL):
            res = item(tr, state, rng, k)
            if res.failures:
                raise RuntimeError(f"{workload} pool entry {k} fails {res.failures}")
            out.append(res.scalars)
    finally:
        checkpoint_path(scratch).unlink(missing_ok=True)
    return out
