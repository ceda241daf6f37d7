"""Print one JSON line of kernel costs per call, the time in milliseconds
and the minor page faults (the ru_minflt delta of getrusage(RUSAGE_SELF)):
- torus, at N = 4, 8, 16 and 24: the lattice's multiply by the Green
  multiplier on a real 3-form and on a complex spinor, and its partials on
  the same two fields (each skipped on a tree without it), curl and
  divergence, dirac3, csd and grad_csd for each case, observables,
  linearize().apply and .adjoint, one unperturbed flow_step per scheme, and
  save_checkpoint and load_checkpoint through a file in a temporary
  directory;
- annulus, at 129 x 64 and 257 x 128 (T = 0.5): the annulus_operator build,
  dirac_apply, and carleman_ratio and appendix_decomposition with the zero
  perturbation at R = 20;
- interval: integrate_zero_data at T = 0.1 for each perturbation of the
  decay suite (none, pointwise, rank-one) at n_t = 257 and 4097;
  peano_branches("sqrt") at 4097 points and rank_one_counterexample at
  131073, as the counterexample suite runs them; at n_t = 2049 and 257,
  one cutoff_bump_sampler draw, and log_weighted_l2, dirac_apply and
  carleman_ratio with the zero perturbation at R = 100 on one sampler
  field; at 2049, constant_sweep with 7 R values and 4 samples, as an
  interval benchmark item; and at 257, ucp_decay_check on the pointwise
  zero-data solution at the benchmark's 7 R values.
carleman_ratio is called as the tree defines it, with or without the
perturbation argument.
Each kernel's time and faults are the medians of REPS calls after one
warm-up call, in each of FRESH fresh child processes, and are reported as
the medians over those processes, so one slow process cannot decide a
kernel.  A fixed count, not a time budget, keeps the slow kernels at
N >= 16 from being timed on a handful of calls.  The line also records the
BLAS thread variables the children ran under.  Point it at another source
tree to compare two versions:

    python3 tools/kernels.py [SRC_DIR]
"""
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

TORUS_SIZES = (4, 8, 16, 24)
ANNULUS_SIZES = ((129, 64), (257, 128))
MARCH_SIZES = (257, 4097)
REPS = 30   # timed calls per kernel and process
FRESH = 3   # child processes per tree
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def median_cost(fn):
    """{"ms": median time, "minflt": median minor page faults} per call."""
    fn()  # warm caches and lazily built tables
    times, faults = [], []
    for _ in range(REPS):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return {"ms": 1e3 * statistics.median(times), "minflt": statistics.median(faults)}


def torus_kernels(tw, ck, N, scratch: Path):
    lat = tw.TorusLattice(N)
    params = tw.default_params(lat)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([N])))
    cfg = tw.random_config(lat, rng, amplitude=0.3)
    small = tw.random_config(lat, rng, amplitude=1e-4)
    lin, tangent = tw.linearize(cfg), tw.random_tangent(lat, rng)
    triple = lin.apply(tangent)
    ckpt = scratch / f"torus_{N}.ckpt"
    ck.save_checkpoint(cfg, ckpt)
    per_case = {f"{name}_{case}": lambda fn=fn, case=case: fn(cfg, params, case)
                for case in tw._CASES for name, fn in (("csd", tw.csd), ("grad_csd", tw.grad_csd))}
    multiply = ({"multiply_form": lambda: lat.multiply(cfg.alpha, lat.green),
                 "multiply_spinor": lambda: lat.multiply(cfg.psi, lat.green)}
                if hasattr(lat, "multiply") else {})
    partials = ({"partials_form": lambda: lat.partials(cfg.alpha),
                 "partials_spinor": lambda: lat.partials(cfg.psi)}
                if hasattr(lat, "partials") else {})
    return {
        **multiply,
        **partials,
        "curl": lambda: lat.curl(cfg.alpha),
        "divergence": lambda: lat.divergence(cfg.alpha),
        "dirac3": lambda: tw.dirac3(cfg),
        **per_case,
        "observables": lambda: tw.observables(cfg, params),
        "linearize_apply": lambda: lin.apply(tangent),
        "linearize_adjoint": lambda: lin.adjoint(triple),
        "flow_step_explicit": lambda: tw.flow_step(small, None, "unperturbed", dt=1e-3,
                                                   scheme="explicit"),
        "flow_step_semi_implicit": lambda: tw.flow_step(
            small, None, "unperturbed", dt=3.0, scheme="semi-implicit"),
        "save_checkpoint": lambda: ck.save_checkpoint(cfg, ckpt),
        "load_checkpoint": lambda: ck.load_checkpoint(ckpt),
    }


def zero_ratio(cl, pt):
    """carleman_ratio(op, v, R, geom) with the zero perturbation, on a tree
    whose carleman_ratio takes the perturbation and on an older one whose
    carleman_ratio does not (it also has perturbed_carleman_ratio)."""
    if hasattr(cl, "perturbed_carleman_ratio"):
        return cl.carleman_ratio
    zero = pt.Perturbation.zero()
    return lambda op, v, R, geom: cl.carleman_ratio(op, zero, v, R, geom)


def annulus_kernels(cl, ops, pt, n_t, n_theta):
    geom = cl.CarlemanGeometry.annulus(0.5, n_t, n_theta)
    op = ops.annulus_operator(geom.grid)
    v = cl.cutoff_bump_sampler(geom)(np.random.Generator(np.random.Philox(n_t)))
    zero, ratio = pt.Perturbation.zero(), zero_ratio(cl, pt)
    return {
        "annulus_operator": lambda: ops.annulus_operator(geom.grid),
        "dirac_apply": lambda: ops.dirac_apply(op, v),
        "carleman_ratio": lambda: ratio(op, v, 20.0, geom),
        "appendix_decomposition_zero": lambda: cl.appendix_decomposition(op, zero, v, 20.0, geom),
    }


def interval_kernels(cl, ops, pt, cx, cli):
    out, ratio = {}, zero_ratio(cl, pt)
    for n_t in MARCH_SIZES:
        geom = cl.CarlemanGeometry.interval(0.1, n_t)
        op = ops.model_operator_1d(geom.grid)
        for kind, make in cli.PERTURBATIONS.items():
            P = make(geom) or pt.Perturbation.zero()  # an older tree's "none" is None
            out[f"integrate_zero_data_{kind}_{n_t}"] = (
                lambda op=op, P=P: pt.integrate_zero_data(op, P, u0=np.array([1e-12, 0.0j])))
    peano_grid = cl.CarlemanGeometry.interval(4.0, 4097).grid
    rank_one_grid = cl.CarlemanGeometry.interval(2.0, 131073).grid
    for n_t in (2049, 257):  # the sweep and the decay check of an interval benchmark item
        geom = cl.CarlemanGeometry.interval(0.1, n_t)
        op, sampler = ops.model_operator_1d(geom.grid), cl.cutoff_bump_sampler(geom)
        v = sampler(np.random.Generator(np.random.Philox(n_t)))
        out.update({
            f"cutoff_bump_sampler_{n_t}": (
                lambda s=sampler: s(np.random.Generator(np.random.Philox(7)))),
            f"log_weighted_l2_{n_t}": lambda v=v, g=geom: cl.log_weighted_l2(v, 100.0, g),
            f"dirac_apply_{n_t}": lambda op=op, v=v: ops.dirac_apply(op, v),
            f"carleman_ratio_{n_t}": (
                lambda op=op, v=v, g=geom: ratio(op, v, 100.0, g))})
        if n_t == 2049:
            out["constant_sweep_2049"] = lambda op=op, s=sampler, g=geom: cl.constant_sweep(
                op, s, np.logspace(1, 3, 7), g, n_samples=4, seed=1)
    P = cli.PERTURBATIONS["pointwise"](geom)  # geom and op at n_t = 257
    u = pt.integrate_zero_data(op, P, u0=np.array([1e-12, 0.0j]))
    return {**out,
            "ucp_decay_check_pointwise_257": lambda: cl.ucp_decay_check(
                op, P, u, np.logspace(5, 7, 7), geom, seed=0),
            "peano_branches_sqrt_4097": lambda: cx.peano_branches("sqrt", 1.0, peano_grid),
            "rank_one_counterexample_131073": lambda: cx.rank_one_counterexample(rank_one_grid)}


def child(src: Path):
    """Per-process medians of every kernel, one JSON line."""
    sys.path.insert(0, str(src.resolve()))
    from ucp_lab import (carleman, checkpoint, cli, counterexamples, operators,
                         perturbations, torus)
    with tempfile.TemporaryDirectory() as scratch:
        out = {"torus": {str(N): {name: median_cost(fn) for name, fn in torus_kernels(
            torus, checkpoint, N, Path(scratch)).items()} for N in TORUS_SIZES}}
    out["annulus"] = {f"{n_t}x{n_theta}": {
        name: median_cost(fn)
        for name, fn in annulus_kernels(carleman, operators, perturbations,
                                        n_t, n_theta).items()}
        for n_t, n_theta in ANNULUS_SIZES}
    out["interval"] = {"1d": {name: median_cost(fn) for name, fn in interval_kernels(
        carleman, operators, perturbations, counterexamples, cli).items()}}
    print(json.dumps(out))


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(Path(sys.argv[2]))
        sys.exit(0)
    src = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parents[1] / "src"
    runs = [json.loads(subprocess.run([sys.executable, __file__, "--child", str(src)],
                                      capture_output=True, text=True, check=True).stdout)
            for _ in range(FRESH)]
    median = {layer: {size: {name: {key: round(statistics.median(r[layer][size][name][key]
                                                                 for r in runs), 4)
                                    for key in ("ms", "minflt")}
                             for name in kernels}
                      for size, kernels in sizes.items()}
              for layer, sizes in runs[0].items()}
    print(json.dumps({"src": str(src), "numpy": np.__version__,
                      "threads": {name: os.environ.get(name) for name in THREAD_VARS},
                      "units": {"ms": "milliseconds per call",
                                "minflt": "minor page faults per call"},
                      "processes": FRESH, "median": median}))
