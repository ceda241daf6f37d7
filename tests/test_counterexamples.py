import math

import numpy as np
import pytest

from ucp_lab import counterexamples
from ucp_lab.carleman import smoothstep
from ucp_lab.cli import main
from ucp_lab.counterexamples import derivative_5pt, peano_branches, rank_one_counterexample
from ucp_lab.fields import Grid1D, SpinorField
from ucp_lab.perturbations import ucp_condition_check


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
    sol, a = rank_one_counterexample()
    grid = sol.grid
    w = grid.quad_weights()
    assert abs(float(np.sum(w * a)) - math.sqrt(2.0)) < 1e-12
    assert abs(sol.u1[-1] - math.sqrt(2.0)) < 1e-8
    assert abs(float(np.sum(w * sol.u1 * a)) - 1.0) < 1e-8
    assert sol.residual1 < 1e-6
    assert np.max(np.abs(sol.u1[grid.t <= 1.0])) == 0.0


def test_rank_one_perturbation_fails_continuation_conditions():
    sol, a = rank_one_counterexample()
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


def test_peano_cross_check_runs_on_floats(monkeypatch):
    """peano_branches hands _rk4_track Python floats, and the deviation is
    the one numpy-scalar inputs give, bit for bit."""
    track, calls = counterexamples._rk4_track, []
    monkeypatch.setattr(counterexamples, "_rk4_track",
                        lambda *args: calls.append(args) or track(*args))
    for case in ("sqrt", "two-thirds"):
        peano_branches(case, c=1.0, grid=Grid1D.uniform(4.0, 4097))
    assert len(calls) == 2
    for f, x0, y0, x1, h, reference in calls:
        assert all(type(v) is float for v in (x0, y0, x1, h))
        deviation = track(f, x0, y0, x1, h, reference)
        assert type(deviation) is float
        assert deviation == track(f, *map(np.float64, (x0, y0, x1, h)), reference)


def old_rank_one_branch(grid):
    """Oracle: a, u1 and residual1 with smoothstep on the whole grid and the
    cumulative trapezoid by concatenation, as before the collar slice."""
    x, w, h = grid.t, grid.quad_weights(), grid.spacing
    a = math.sqrt(2.0) * smoothstep((x - 1.0) / (0.02 * (x[-1] - x[0]))) * (x >= 1.0)
    total = float(np.sum(w * a))
    if abs(total - math.sqrt(2.0)) > 1e-10:
        a *= math.sqrt(2.0) / total
    u1 = np.concatenate([[0.0], np.cumsum(0.5 * h * (a[1:] + a[:-1]))])
    pairing = float(np.sum(w * u1 * a))
    split = int(np.searchsorted(x, 1.0, side="right"))
    res = counterexamples.derivative_piecewise(u1, h, split) - pairing * a
    return a, u1, float(np.max(np.abs(res)))


@pytest.mark.parametrize("n", [65537, 100001, 131073])  # 100001 has a point at 1 + width
def test_rank_one_collar_slice_keeps_the_old_bits(n):
    grid = Grid1D.uniform(2.0, n)
    sol, a = rank_one_counterexample(grid)
    want_a, want_u1, want_res = old_rank_one_branch(grid)
    assert np.array_equal(a.view(np.uint64), want_a.view(np.uint64))
    assert np.array_equal(sol.u1.view(np.uint64), want_u1.view(np.uint64))
    assert np.float64(sol.residual1).view(np.uint64) == np.float64(want_res).view(np.uint64)
