import math
import tracemalloc

import numpy as np
import pytest

from ucp_lab import counterexamples
from ucp_lab.carleman import smoothstep
from ucp_lab.cli import main
from ucp_lab.counterexamples import _PEANO_CASES, peano_branches, rank_one_counterexample
from ucp_lab.fields import Grid1D, SpinorField
from ucp_lab.perturbations import ucp_condition_check

# Oracle: the whole-array 5-point derivative the blockwise residual replaced.
# Coefficients for d/dx at offsets 0..4 from the left end of five samples.
_ONESIDED5 = {
    0: np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0,
    1: np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0,
    2: np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0,
    3: np.array([-1.0, 6.0, -18.0, 10.0, 3.0]) / 12.0,
    4: np.array([3.0, -16.0, 36.0, -48.0, 25.0]) / 12.0,
}


def derivative_5pt(u: np.ndarray, h: float) -> np.ndarray:
    """4th-order d/dx on a uniform grid (exact for polynomials up to degree 4)."""
    n = u.size
    if n < 5:
        raise ValueError("need at least 5 samples")
    du = np.empty_like(u, dtype=float)
    du[2:-2] = (u[:-4] - 8.0 * u[1:-3] + 8.0 * u[3:-1] - u[4:]) / (12.0 * h)
    for i, c in ((0, 0), (1, 1), (n - 2, 3), (n - 1, 4)):
        lo = min(max(i - c, 0), n - 5)
        du[i] = _ONESIDED5[i - lo] @ u[lo:lo + 5] / h
    return du


def derivative_piecewise(u: np.ndarray, h: float, split: int) -> np.ndarray:
    """d/dx with stencils confined to [0, split) and [split, n) separately."""
    n = u.size
    du = np.empty_like(u, dtype=float)
    for lo, hi in ((0, split), (split, n)):
        if hi - lo == 0:
            continue
        if hi - lo < 5:
            raise ValueError("each side of the branch point needs >= 5 samples")
        du[lo:hi] = derivative_5pt(u[lo:hi], h)
    return du


def test_derivative_5pt_exact_for_cubics():
    grid = Grid1D.uniform(1.0, 101)
    u = 2.0 * grid.t ** 3 - grid.t ** 2 + 0.5
    du = derivative_5pt(u, grid.spacing)
    assert np.max(np.abs(du - (6.0 * grid.t ** 2 - 2.0 * grid.t))) < 1e-11


def test_peano_two_thirds_branch_value():
    sol = peano_branches("two-thirds", c=1.0, grid=Grid1D.uniform(4.0, 4097))
    idx = np.argmin(np.abs(sol.grid.t - 2.0))
    assert abs(sol.u1[idx] - 1.0) < 1e-12


def test_peano_sqrt_branch_value():
    sol = peano_branches("sqrt", c=0.0, grid=Grid1D(np.linspace(-1.0, 3.0, 4097)))
    assert abs(sol.u1[-1] - 9.0) < 1e-12


@pytest.mark.parametrize("case", ["sqrt", "two-thirds"])
def test_peano_residuals_and_cross_resolution(case):
    for n in (4097, 16385):
        sol = peano_branches(case, c=1.0, grid=Grid1D.uniform(4.0, n))
        assert sol.residual0 == 0.0
        assert sol.residual1 < 1e-8


@pytest.mark.parametrize("case", ["sqrt", "two-thirds"])
def test_branches_agree_then_separate(case):
    sol = peano_branches(case, c=1.0, grid=Grid1D.uniform(4.0, 4097))
    agree = sol.grid.t <= sol.branch_point
    assert np.max(np.abs(sol.u0[agree] - sol.u1[agree])) < 1e-10
    assert sol.separation_sup > 1e-4


def test_peano_unknown_case_and_exterior_branch_point():
    with pytest.raises(ValueError):
        peano_branches("cubic", c=1.0, grid=Grid1D.uniform(4.0, 1025))
    with pytest.raises(ValueError):
        peano_branches("sqrt", c=10.0, grid=Grid1D.uniform(4.0, 1025))


def test_rank_one_reproduces_stated_values():
    sol, a = rank_one_counterexample(Grid1D.uniform(2.0, 16385))
    grid = sol.grid
    w = grid.quad_weights()
    assert abs(float(np.sum(w * a)) - math.sqrt(2.0)) < 1e-12
    assert abs(sol.u1[-1] - math.sqrt(2.0)) < 1e-8
    assert abs(float(np.sum(w * sol.u1 * a)) - 1.0) < 1e-8
    assert sol.residual1 < 1e-6
    assert np.max(np.abs(sol.u1[grid.t <= 1.0])) == 0.0


def test_rank_one_perturbation_fails_continuation_conditions():
    sol, a = rank_one_counterexample(Grid1D.uniform(2.0, 16385))
    grid = sol.grid
    a_field = SpinorField(grid, a[:, None].astype(complex))
    trivial = SpinorField(grid, sol.u0[:, None].astype(complex))
    assert ucp_condition_check(a_field, trivial).verdict == "neither"


def test_branch_csv_round_trip(tmp_path):
    """The counterexample suite writes the sqrt branches to plotdata/peano_sqrt.csv."""
    cfg = tmp_path / "c.cfg"
    cfg.write_text("peano_n = 1025\nrank_one_n = 65537\n")
    code = main(["run", "--suite", "counterexample", "--config", str(cfg),
                 "--out", str(tmp_path)])
    assert code == 0
    sol = peano_branches("sqrt", c=1.0, grid=Grid1D.uniform(4.0, 1025))
    rows = (tmp_path / "plotdata" / "peano_sqrt.csv").read_text().strip().splitlines()
    assert rows[0] == "x,u0,u1"
    assert len(rows) == sol.grid.n + 1
    last = rows[-1].split(",")
    assert abs(float(last[2]) - sol.u1[-1]) < 1e-15


# the Peano right-hand sides as autonomous scalar functions, and the power p
# of each branch (x - c)^p
PEANO_ODES = {"sqrt": (lambda y: 2.0 * abs(y) ** 0.5, 2),
              "two-thirds": (lambda y: 3.0 * abs(y) ** (2.0 / 3.0), 3)}


def rk4_deviation(f, x0, y0, x1, steps, exact):
    """Integrate y' = f(y) from (x0, y0) to x1 by RK4 in equal steps and
    return the largest deviation from exact(x) at the step points."""
    h = (x1 - x0) / steps
    y, worst = y0, 0.0
    for i in range(1, steps + 1):
        k1 = f(y)
        k2 = f(y + 0.5 * h * k1)
        k3 = f(y + 0.5 * h * k2)
        k4 = f(y + h * k3)
        y += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        worst = max(worst, abs(y - exact(x0 + i * h)))
    return worst


@pytest.mark.parametrize("case", ["sqrt", "two-thirds"])
def test_peano_branch_matches_rk4_oracle(case):
    """The returned branch is (x - c)^p past c, and RK4 shooting from
    (c + eps, eps^p) in 4,096 steps stays within 1e-6 of it."""
    f, p = PEANO_ODES[case]
    c = 1.0
    sol = peano_branches(case, c=c, grid=Grid1D.uniform(4.0, 4097))
    x = sol.grid.t
    assert np.array_equal(sol.u1, np.maximum(x - c, 0.0) ** p)
    eps = max(0.1 * (x[-1] - c), 8.0 * sol.grid.spacing)
    deviation = rk4_deviation(f, c + eps, eps ** p, float(x[-1]), 4096,
                              lambda xi: (xi - c) ** p)
    assert deviation <= 1e-6


def closed_form_rank_one(grid):
    """Oracle: the carrier a and its antiderivative u1 = int_1^x a, as the
    piecewise closed form over the whole grid."""
    x = grid.t
    width = 0.02 * (x[-1] - x[0])
    k = math.sqrt(2.0) / (1.0 - width / 2.0)
    y = np.clip((x - 1.0) / width, 0.0, 1.0)
    a = k * smoothstep(y)
    S = y ** 4 * (5.0 / 2.0 - 3.0 * y + y ** 2)
    u1 = np.where(x < 1.0 + width, k * width * S, k * (x - 1.0 - width / 2.0))
    return a, u1


def branch_residual(grid, a, u1):
    """The stencil residual of u1' = <u1, a> a, the pairing by trapezoid."""
    pairing = float(np.sum(grid.quad_weights() * u1 * a))
    split = int(np.searchsorted(grid.t, 1.0, side="right"))
    res = derivative_piecewise(u1, grid.spacing, split) - pairing * a
    return float(np.max(np.abs(res)))


@pytest.mark.parametrize("n", [8333, 16385, 100001, 131073])  # 100001 has a point at 1 + width
def test_rank_one_branch_is_the_closed_form(n):
    """The branch is the closed form, and its blockwise residual and pairing
    are the whole-array oracle's bit for bit, at the counterexample suite's
    16,385 and the benchmark's 131,073 points among others."""
    grid = Grid1D.uniform(2.0, n)
    sol, a = rank_one_counterexample(grid)
    want_a, want_u1 = closed_form_rank_one(grid)
    assert np.max(np.abs(a - want_a)) <= 1e-15
    assert np.max(np.abs(sol.u1 - want_u1)) <= 1e-15
    w = grid.quad_weights()
    pairing, want_pairing = counterexamples._pairing(w, sol.u1, a), float(np.sum(w * sol.u1 * a))
    assert pairing == want_pairing
    assert sol.residual1 == branch_residual(grid, a, sol.u1)


def test_rank_one_residual_falls_at_the_stencil_order():
    """The branch residual falls at least 7x per halving of h; at 8,193
    points the pairing is refused, so the oracle's residual is read."""
    residuals = [branch_residual(grid, *closed_form_rank_one(grid))
                 for grid in (Grid1D.uniform(2.0, n) for n in (8193, 16385, 32769))]
    for coarse, fine in zip(residuals, residuals[1:]):
        assert coarse >= 7.0 * fine


@pytest.mark.parametrize("t", [np.linspace(0.0, 0.5, 101), np.linspace(0.0, 1.0, 101),
                               np.linspace(1.0, 2.0, 101)])
def test_rank_one_refuses_a_grid_without_the_branch_point(t):
    with pytest.raises(ValueError, match="branch point must lie inside the grid"):
        rank_one_counterexample(Grid1D(t))


def test_rank_one_holds_only_its_outputs():
    """At the benchmark's 131,073 points the traced peak is a, u1 and u0
    plus at most 0.5 MB: no full-length derivative, product or residual.
    Dropping the outputs frees them at once: no reference cycle keeps them
    until the next garbage collection."""
    n = 131073
    grid = Grid1D.uniform(2.0, n)
    grid.quad_weights()
    tracemalloc.start()
    try:
        rank_one_counterexample(grid)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 8 * n + 0.5e6
    assert current <= 0.1e6


@pytest.mark.parametrize("case", ["sqrt", "two-thirds"])
@pytest.mark.parametrize("n", [17, 4097])
def test_peano_residual_is_the_whole_array_oracle(case, n):
    rhs = _PEANO_CASES[case][0]
    sol = peano_branches(case, c=1.0, grid=Grid1D.uniform(4.0, n))
    x = sol.grid.t
    split = int(np.searchsorted(x, 1.0, side="right"))
    res = derivative_piecewise(sol.u1, sol.grid.spacing, split) - rhs(x, sol.u1)
    assert sol.residual1 == float(np.max(np.abs(res)))


def traced_peak(fn):
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n", [5, 8193, 20011, 100003, 131073])
def test_blockwise_pairing_is_numpys_sum_within_a_block(n):
    """On random data, where every part of numpy's pairwise split carries
    weight, the pairing is np.sum(w * u * a) bit for bit, and holds one
    block of scratch."""
    rng = np.random.Generator(np.random.Philox(n))
    w, u, a = rng.standard_normal((3, n))
    pairing, peak = traced_peak(lambda: counterexamples._pairing(w, u, a))
    assert pairing == float(np.sum(w * u * a))
    assert peak <= 8 * counterexamples._BLOCK + 0.01e6


def test_blockwise_residual_holds_a_few_blocks():
    """Over 8 blocks on each side of a split, the residual is the
    whole-array oracle's bit for bit in three blocks of scratch."""
    n = 131073
    rng = np.random.Generator(np.random.Philox(n))
    u, f = rng.standard_normal((2, n))
    split = n // 2 + 3
    residual, peak = traced_peak(
        lambda: counterexamples._sup_residual(u, 1e-3, split, lambda i: f[i]))
    assert residual == float(np.max(np.abs(derivative_piecewise(u, 1e-3, split) - f)))
    assert peak <= 3 * 8 * counterexamples._BLOCK + 0.01e6
    with pytest.raises(ValueError, match=">= 5 samples"):
        counterexamples._sup_residual(u, 1e-3, 4, lambda i: f[i])
