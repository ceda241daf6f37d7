"""Print one JSON line of torus kernel timings: the four TorusLattice
transforms, dirac3, the case2 csd and grad_csd, and one unperturbed
flow_step per scheme, at N = 4, 8, 16 and 24 (median of REPS calls after one
warm-up call, in milliseconds).  A fixed count, not a time budget, keeps the
slow kernels at N >= 16 from being timed on a handful of calls.  Point it at
another source tree to compare two versions:

    python3 tools/torus_kernels.py [SRC_DIR]
"""
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

SIZES = (4, 8, 16, 24)
REPS = 30   # timed calls per kernel


def median_ms(fn):
    fn()  # warm caches and lazily built tables
    times = []
    for _ in range(REPS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return round(1e3 * statistics.median(times), 4)


def kernels(tw, N):
    lat = tw.TorusLattice(N)
    params = tw.default_params(lat)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([N])))
    cfg = tw.random_config(lat, rng, amplitude=0.3)
    small = tw.random_config(lat, rng, amplitude=1e-4)
    half = lat.rfft(cfg.alpha)
    return {
        "fft": lambda: lat.fft(cfg.psi),
        "ifft": lambda: lat.ifft(cfg.psi),
        "rfft": lambda: lat.rfft(cfg.alpha),
        "irfft": lambda: lat.irfft(half),
        "dirac3": lambda: tw.dirac3(cfg),
        "csd_case2": lambda: tw.csd(cfg, params, "case2"),
        "grad_csd_case2": lambda: tw.grad_csd(cfg, params, "case2"),
        "flow_step_explicit": lambda: tw.flow_step(small, None, "unperturbed", dt=1e-3),
        "flow_step_semi_implicit": lambda: tw.flow_step(
            small, None, "unperturbed", dt=3.0, scheme="semi-implicit"),
    }


if __name__ == "__main__":
    src = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parents[1] / "src"
    sys.path.insert(0, str(src.resolve()))
    from ucp_lab import torus as tw
    out = {"src": str(src), "numpy": np.__version__, "unit": "ms",
           "median_ms": {str(N): {name: median_ms(fn) for name, fn in kernels(tw, N).items()}
                         for N in SIZES}}
    print(json.dumps(out))
