import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucp_lab.clifford import J, fiber_inner, frame
from ucp_lab.counterexamples import rank_one_counterexample
from ucp_lab.errors import DomainMismatchError, FlowInstabilityError, PreconditionError
from ucp_lab.fields import Grid1D, SpinorField
from ucp_lab.operators import (DiracOperator, absorb_homomorphism, constant_operator_1d,
                               dirac_apply, model_operator_1d)
from ucp_lab.perturbations import (Perturbation, _stages, admissibility_bound,
                                   eval_perturbation, integrate_zero_data,
                                   ucp_condition_check)


@pytest.fixture
def grid():
    return Grid1D.uniform(2.0, 513)


def bump_field(grid, center, width, rank=2, component=0):
    vals = np.zeros((grid.n, rank), dtype=complex)
    vals[:, component] = np.exp(-((grid.t - center) ** 2) / (2 * width ** 2))
    return SpinorField(grid, vals)


def all_kinds(grid):
    a = bump_field(grid, 1.0, 0.3)
    return [Perturbation.zero(), Perturbation.pointwise(a), Perturbation.rank_one(a)]


def test_zero_input_maps_to_zero_for_every_kind(grid):
    u = grid.zeros()
    for P in all_kinds(grid):
        assert eval_perturbation(P, u).sup_norm() == 0.0


@pytest.mark.parametrize("fields", [
    {"matrix": np.zeros((513, 2, 2))}, {"fiber_pairing": True}, {"l2_pairing": True},
    {"carrier": True}, {"carrier": True, "fiber_pairing": True, "l2_pairing": True},
    {"carrier": True, "fiber_pairing": True, "matrix": np.zeros((513, 2, 2))}])
def test_perturbation_with_contradicting_fields_is_refused(grid, fields):
    """A kind without a carrier, a carrier without a kind, or two kinds on one
    carrier would read as one kind in carleman_ratio or the march and act as
    another in eval_perturbation, so the constructor refuses them."""
    fields = dict(fields)
    a = bump_field(grid, 1.0, 0.3) if fields.pop("carrier", False) else None
    with pytest.raises(ValueError, match="carrier"):
        Perturbation(a, **fields)


def test_pointwise_with_vanishing_profile(grid):
    P = Perturbation.pointwise(grid.zeros())
    u = bump_field(grid, 0.7, 0.2)
    assert eval_perturbation(P, u).sup_norm() == 0.0


def test_rank_one_reproduces_branch_pairing():
    sol, a = rank_one_counterexample(Grid1D.uniform(2.0, 16385))
    grid = sol.grid
    a_field = SpinorField(grid, a[:, None].astype(complex))
    u_field = SpinorField(grid, sol.u1[:, None].astype(complex))
    out = eval_perturbation(Perturbation.rank_one(a_field), u_field)
    # <u, a> = 1, so the image is the profile itself
    assert np.max(np.abs(out.values[:, 0] - a)) < 1e-7 * max(np.max(np.abs(a)), 1.0)


def test_pointwise_quadratic_homogeneity(grid):
    P = Perturbation.pointwise(bump_field(grid, 1.2, 0.4))
    u = bump_field(grid, 0.9, 0.3)
    base = eval_perturbation(P, u).fiber_abs()
    for lam in (0.5, 2.0, 3.0):
        scaled = eval_perturbation(P, u * lam).fiber_abs()
        assert np.max(np.abs(scaled - lam ** 2 * base)) <= 1e-12 * max(base.max(), 1.0)


def test_rank_one_complex_linearity(grid):
    P = Perturbation.rank_one(bump_field(grid, 1.2, 0.4))
    u = bump_field(grid, 1.1, 0.3)
    base = eval_perturbation(P, u).values
    for lam in (0.5, -2.0, 1.3 + 0.7j, 1j):
        scaled = eval_perturbation(P, u * lam).values
        assert np.max(np.abs(scaled - lam * base)) <= 1e-14 * max(np.max(np.abs(base)), 1e-30)


def test_admissibility_pointwise_bound(grid):
    a = bump_field(grid, 1.0, 0.5)
    P = Perturbation.pointwise(a)
    u = bump_field(grid, 1.0, 0.3)
    res = admissibility_bound(P, u)
    assert res.admissible
    # C0 = max |<u, a>| <= sup|a| sup|u|
    omega = np.abs(np.sum(u.values * np.conj(a.values), axis=-1))
    assert abs(res.c0 - np.max(omega)) < 1e-14
    assert res.c0 <= a.sup_norm() * u.sup_norm() + 1e-14


def test_admissibility_rank_one_fails_where_u_vanishes(grid):
    # a extends past the support of u with <u, a> != 0, so P(u) is nonzero
    # at points where u vanishes
    a_vals = np.zeros((grid.n, 2), dtype=complex)
    a_vals[grid.t >= 1.0, 0] = 1.0
    u_vals = np.zeros((grid.n, 2), dtype=complex)
    u_vals[grid.t < 1.2, 0] = np.exp(-((grid.t[grid.t < 1.2] - 0.6) ** 2) / 0.05)
    res = admissibility_bound(Perturbation.rank_one(SpinorField(grid, a_vals)),
                              SpinorField(grid, u_vals))
    assert not res.admissible


def test_admissibility_kernel_box_quadrature_oracle(grid):
    # rank-one with carrier u: P(u) = <u, u>_{L2} u, so C0 = int |u|^2
    u = bump_field(grid, 1.0, 0.2)
    res = admissibility_bound(Perturbation.rank_one(u), u)
    oracle = np.trapezoid(np.abs(u.values[:, 0]) ** 2, grid.t)
    assert res.admissible
    assert abs(res.c0 - oracle) < 1e-10


def test_admissibility_scaling_behaviour(grid):
    a = bump_field(grid, 1.0, 0.5)
    u = bump_field(grid, 1.0, 0.3)
    # pointwise omega is linear in u, so the bound scales with the input
    P = Perturbation.pointwise(a)
    c_base = admissibility_bound(P, u).c0
    for lam in (0.5, 2.0):
        c_scaled = admissibility_bound(P, u * lam).c0
        assert abs(c_scaled - lam * c_base) <= 1e-10 * max(c_base, 1.0)
    # the rank-one map is linear, so its quotient is scale-invariant
    P = Perturbation.rank_one(u)
    c_base = admissibility_bound(P, u).c0
    for lam in (0.5, 2.0):
        c_scaled = admissibility_bound(P, u * lam).c0
        assert abs(c_scaled - c_base) <= 1e-10 * max(c_base, 1.0)


def test_ucp_condition_plane_wave(grid):
    wave = np.exp(1j * 5.0 * grid.t)
    a = SpinorField(grid, np.stack([wave, 0.2 * wave], axis=1))
    u = bump_field(grid, 0.5, 0.2)
    assert ucp_condition_check(a, u).verdict == "condition-i"


def test_ucp_condition_a_equals_u():
    grid = Grid1D.uniform(2.0, 513)
    vals = np.zeros((grid.n, 1), dtype=complex)
    vals[grid.t >= 1.0, 0] = (grid.t[grid.t >= 1.0] - 1.0) ** 2
    u = SpinorField(grid, vals)
    res = ucp_condition_check(u, u)
    assert res.verdict == "condition-ii"
    assert abs(res.c0 - 1.0) < 1e-14


def loop_condition_i(mag_a):
    """Condition (i) as a scan: no run of >= 3 samples with |a| < 1e-12."""
    run = 0
    for m in mag_a:
        run = run + 1 if m < 1e-12 else 0
        if run >= 3:
            return False
    return True


def condition_i(mags):
    grid = Grid1D.uniform(1.0, len(mags))
    a = SpinorField(grid, np.stack([np.asarray(mags, dtype=complex),
                                    np.zeros(len(mags))], axis=1))
    res = ucp_condition_check(a, SpinorField(grid, np.ones((grid.n, 2))))
    assert res.holds_i == loop_condition_i(a.fiber_abs())
    return res.holds_i


def test_ucp_condition_i_zero_runs():
    one, zero = 1.0, 0.0
    assert condition_i([one] * 9)                              # no zero
    assert not condition_i([zero] * 9)                         # all zero
    assert condition_i([one, zero, zero, one, zero, zero, one])  # runs of exactly 2
    assert not condition_i([one, one, zero, zero, zero, one, one])  # a run of 3
    assert not condition_i([zero, zero, zero, one, one, one])  # run at the start
    assert not condition_i([one, one, one, zero, zero, zero])  # run at the end
    assert not condition_i([zero] * 3)                         # 3-point grids
    assert condition_i([zero, zero, one])
    assert condition_i([zero, one, zero])
    assert condition_i([5e-13, 2e-12, 5e-13, 5e-13])           # near the 1e-12 threshold
    assert not condition_i([5e-13, 9e-13, 5e-13])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([0.0, 3e-13, 9.9e-13, 1e-12, 1.1e-12, 0.5, 1.0]),
                min_size=3, max_size=40))
def test_ucp_condition_i_matches_scan(mags):
    condition_i(mags)


def test_ucp_condition_neither(grid):
    a_vals = np.zeros((grid.n, 1), dtype=complex)
    a_vals[grid.t >= 1.0, 0] = 1.0
    u_vals = np.zeros((grid.n, 1), dtype=complex)
    inside = grid.t <= 1.0
    u_vals[inside, 0] = np.exp(-((grid.t[inside] - 0.5) ** 2) / 0.01)
    res = ucp_condition_check(SpinorField(grid, a_vals), SpinorField(grid, u_vals))
    assert res.verdict == "neither"


def test_zero_data_integration_stays_zero():
    grid = Grid1D.uniform(1.0, 1025)
    op = model_operator_1d(grid)
    a = bump_field(grid, 0.5, 0.2)
    for P in (Perturbation.zero(), Perturbation.pointwise(a), Perturbation.rank_one(a)):
        u = integrate_zero_data(op, P, u0=np.zeros(2))
        assert u.sup_norm() < 1e-12


def test_zero_march_matches_zero_pointwise_carrier():
    """The zero kind marches by step matrices, the pointwise kind by the stage
    loop; with an all-zero carrier both solve the same equation by the same
    RK4 steps, so they agree to rounding."""
    grid = Grid1D.uniform(0.1, 1025)
    op = model_operator_1d(grid)
    u0 = np.array([1e-12, 0.3e-12j])
    skipped = integrate_zero_data(op, Perturbation.zero(), u0=u0)
    kept = integrate_zero_data(op, Perturbation.pointwise(grid.zeros()), u0=u0)
    assert np.max(np.abs(skipped.values - kept.values)) <= 1e-13 * kept.sup_norm()
    assert skipped.sup_norm() > 0.0


def march_orders(make_op, make_P, ns, T, u0=(0.6, 0.3 + 0.2j)):
    """Observed orders of the march's end value over successive grid halvings."""
    ends = []
    for n in ns:
        grid = Grid1D.uniform(T, n)
        u = integrate_zero_data(make_op(grid), make_P(grid), u0=np.array(u0))
        ends.append(u.values[-1])
    diffs = [np.linalg.norm(ends[i] - ends[i + 1]) for i in range(len(ns) - 1)]
    return [np.log2(diffs[i] / diffs[i + 1]) for i in range(len(diffs) - 1)]


def test_pointwise_integration_is_fourth_order():
    def pointwise(grid):
        a = np.stack([np.cos(np.pi * grid.t), 1j * np.sin(np.pi * grid.t)], axis=1)
        return Perturbation.pointwise(SpinorField(grid, a))

    for make_P in (pointwise, lambda grid: Perturbation.zero()):
        orders = march_orders(model_operator_1d, make_P, (129, 257, 513, 1025), 1.0)
        assert min(orders) >= 3.9, orders


def test_matrix_kind_march_is_fourth_order():
    """The matrix kind's M folds into the generator B + C + cl(dt)^-1 M,
    which the march reads at the stage offsets like B + C."""
    def matrix(grid):
        M = np.exp(-1j * grid.t)[:, None, None] * np.array([[0.2, -0.4j], [0.3, 0.1]])
        return Perturbation.matrix_field(grid.zeros(), M)

    orders = march_orders(model_operator_1d, matrix, (129, 257, 513, 1025), 1.0)
    assert min(orders) >= 3.9, orders


def test_unperturbed_march_is_fourth_order_for_any_stored_operator():
    # operators without a closed-form coefficient source march from B and C
    def absorbed(grid):
        R = np.exp(1j * grid.t)[:, None, None] * np.array([[0.3, 0.5], [-0.2, 0.4j]])
        return absorb_homomorphism(model_operator_1d(grid), R)

    for make_op in (absorbed, constant_operator_1d):
        orders = march_orders(make_op, lambda grid: Perturbation.zero(),
                              (33, 65, 129, 257), 2.0)
        assert min(orders) >= 3.9, orders


def rank_four(grid):
    """A rank-4 operator: two copies of the 1-D fiber, coupled by a bundle map."""
    cl_dt = np.kron(np.eye(2), frame(1)[0])
    zeros = np.zeros((grid.n, 4, 4), dtype=complex)
    R = np.exp(1j * grid.t)[:, None, None] * np.kron(
        np.array([[0.3, 0.5], [-0.2, 0.4j]]), np.array([[1.0, 0.2j], [0.1, -0.6]]))
    return absorb_homomorphism(DiracOperator(grid, cl_dt, zeros, zeros.copy()), R)


def test_march_reads_the_fiber_rank_from_cl_dt():
    """A rank-4 operator, two copies of the 1-D fiber, marches rank-4 data."""
    orders = march_orders(rank_four, lambda grid: Perturbation.zero(), (65, 129, 257, 513),
                          2.0, u0=(0.6, 0.3 + 0.2j, -0.4j, 0.1))
    assert min(orders) >= 3.9, orders


def test_rank_four_pointwise_march_is_fourth_order():
    """The scalar stage loop pairs rank-4 stage values with a rank-4 carrier."""
    def pointwise(grid):
        a = np.stack([np.cos(np.pi * grid.t), 1j * np.sin(np.pi * grid.t),
                      0.5 * np.exp(1j * grid.t), 0.3 - 0.2 * grid.t], axis=1)
        return Perturbation.pointwise(SpinorField(grid, a))

    orders = march_orders(rank_four, pointwise, (65, 129, 257, 513), 2.0,
                          u0=(0.6, 0.3 + 0.2j, -0.4j, 0.1))
    assert min(orders) >= 3.9, orders
    grid = Grid1D.uniform(2.0, 129)
    op, P, u0 = rank_four(grid), pointwise(grid), np.array([0.6, 0.3 + 0.2j, -0.4j, 0.1])
    want = numpy_stage_march(op, P, u0)
    got = integrate_zero_data(op, P, u0=u0).values
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def numpy_stage_march(op, P, u0):
    """Oracle: the zero and local kinds marched on numpy arrays, one rhs call
    per RK4 stage, a local kind applied to each stage value as a fiber map of
    its coefficient (the carrier or M) read at the stage offsets."""
    grid, h, cl_inv = op.grid, op.grid.spacing, -op.cl_dt
    tangential = _stages(op.B + op.C)
    fiber = None
    if P.fiber_pairing:
        coeff_at, fiber = _stages(P.a.values), lambda c, v: fiber_inner(v, c)[..., None] * v
    elif P.matrix is not None:
        coeff_at, fiber = _stages(P.matrix), lambda c, v: np.einsum("...ij,...j->...i", c, v)
    values = np.zeros((grid.n, len(u0)), dtype=complex)
    values[0] = u0
    for i in range(grid.n - 1):
        y = values[i]

        def rhs(s, y):
            dy = -tangential[s][i] @ y
            if fiber is not None:
                return dy - cl_inv @ fiber(coeff_at[s][i], y)
            return dy

        k1 = rhs(0.0, y)
        k2 = rhs(0.5, y + 0.5 * h * k1)
        k3 = rhs(0.5, y + 0.5 * h * k2)
        k4 = rhs(1.0, y + h * k3)
        values[i + 1] = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return values


def test_scalar_march_matches_numpy_stages():
    """On the real generator of model_operator_1d the scalar loop forms the
    same products and sums, in the same order, as numpy, so the pointwise
    march at the suites' 1e-12 data is bit-identical; numpy's matmul fuses
    multiply-adds for a complex generator, so there the two agree to
    rounding.  The zero and matrix kinds march by step matrices, which
    multiply the stages out in another order: they agree to 1e-14."""
    for n in (3, 4, 65, 1025):
        grid = Grid1D.uniform(2.0, n)
        R = np.exp(1j * grid.t)[:, None, None] * np.array([[0.3, 0.5], [-0.2, 0.4j]])
        a = SpinorField(grid, np.stack([np.cos(np.pi * grid.t), 1j * np.sin(np.pi * grid.t)],
                                       axis=1))
        M = np.exp(-1j * grid.t)[:, None, None] * np.array([[0.2, -0.4j], [0.3, 0.1]])
        model = model_operator_1d(grid)
        for op in (model, absorb_homomorphism(model, R)):
            for P in (Perturbation.zero(), Perturbation.pointwise(a),
                      Perturbation.matrix_field(a, M)):
                for scale in (1e-12, 1.0):
                    u0 = scale * np.array([0.6, 0.3 + 0.2j])
                    want = numpy_stage_march(op, P, u0)
                    got = integrate_zero_data(op, P, u0=u0).values
                    tol = 1e-15 if P.fiber_pairing else 1e-14
                    if op is model and P.fiber_pairing and scale == 1e-12:
                        assert np.array_equal(got, want), n
                    assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want)), n


def test_march_rejects_slice_data_of_another_rank():
    op = model_operator_1d(Grid1D.uniform(1.0, 9))
    with pytest.raises(DomainMismatchError, match=r"expected \(2,\)"):
        integrate_zero_data(op, Perturbation.zero(), u0=np.ones(3))


def test_rank_one_residual_falls_like_the_zero_kinds():
    """At unit data the march solves the stated equation D u + <u, a> a = 0:
    its residual against eval_perturbation falls at O(h^2), the order of the
    stencil of dirac_apply, within a factor 2 of the zero kind's."""
    u0 = np.array([1.0, 0.0j])
    rank_one = []
    for n in (257, 1025, 4097):
        grid = Grid1D.uniform(0.1, n)
        op = model_operator_1d(grid)
        P = Perturbation.rank_one(bump_field(grid, 0.03, 0.1 / 12))  # the decay suite's
        u, u_zero = (integrate_zero_data(op, Q, u0=u0) for Q in (P, Perturbation.zero()))
        residual = (dirac_apply(op, u) + eval_perturbation(P, u)).sup_norm()
        zero = dirac_apply(op, u_zero).sup_norm()
        assert zero / 2.0 <= residual <= 2.0 * zero, (n, residual, zero)
        assert np.max(np.abs(u.values - u_zero.values)) > 1e-4  # the term acts
        rank_one.append(residual)
    orders = [np.log2(rank_one[i] / rank_one[i + 1]) / 2 for i in range(2)]  # n_t x4 a step
    assert min(orders) >= 1.9, orders


def test_rank_one_march_is_fourth_order():
    """The pairings ride as one more RK4 state component, so the rank-one
    march keeps the order of the other kinds, on stored operators too."""
    def absorbed(grid):
        R = np.exp(1j * grid.t)[:, None, None] * np.array([[0.3, 0.5], [-0.2, 0.4j]])
        return absorb_homomorphism(model_operator_1d(grid), R)

    def rank_one(grid):
        return Perturbation.rank_one(bump_field(grid, 0.5, 0.2))

    for make_op in (model_operator_1d, absorbed):
        orders = march_orders(make_op, rank_one, (129, 257, 513, 1025, 2049), 1.0)
        assert min(orders) >= 3.9, orders


def augmented_stage_rk4(op, P, u0):
    """Oracle: the rank-one march stage by stage on numpy arrays, one rhs call
    per RK4 stage, on the state (u, I, c) with I' = <u, a> and c' = 0, from
    the columns (u0, 0, 0) and (0, 0, 1), combined as u_h + S w."""
    grid, h, cl_inv = op.grid, op.grid.spacing, -op.cl_dt
    tangential, carrier = _stages(op.B + op.C), _stages(P.a.values)
    r = len(u0)
    x = np.zeros((grid.n, r + 2, 2), dtype=complex)
    x[0, :r, 0], x[0, r + 1, 1] = u0, 1.0
    for i in range(grid.n - 1):
        def rhs(s, y):
            a = carrier[s][i]
            return np.concatenate([-tangential[s][i] @ y[:r] - np.outer(cl_inv @ a, y[r + 1]),
                                   [np.conj(a) @ y[:r]], np.zeros((1, 2))])

        y = x[i]
        k1 = rhs(0.0, y)
        k2 = rhs(0.5, y + 0.5 * h * k1)
        k3 = rhs(0.5, y + 0.5 * h * k2)
        k4 = rhs(1.0, y + h * k3)
        x[i + 1] = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    pair_h, pair_w = x[-1, r]
    return x[:, :r, 0] + pair_h / (1.0 - pair_w) * x[:, :r, 1], pair_w


def test_rank_one_march_matches_augmented_stage_rk4():
    u0 = np.array([0.6, 0.3 + 0.2j])
    for n in (3, 4, 65, 1025):
        grid = Grid1D.uniform(2.0, n)
        R = np.exp(1j * grid.t)[:, None, None] * np.array([[0.3, 0.5], [-0.2, 0.4j]])
        bump = np.exp(-((grid.t - 0.8) ** 2) / (2 * 0.4 ** 2))
        a = np.stack([3.0 * bump, (1.0 - 2.0j) * np.exp(1j * grid.t) * bump], axis=1)
        for op in (model_operator_1d(grid), absorb_homomorphism(model_operator_1d(grid), R)):
            P = Perturbation.rank_one(SpinorField(grid, a))
            want, _ = augmented_stage_rk4(op, P, u0)
            got = integrate_zero_data(op, P, u0=u0).values
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), n
            unperturbed = integrate_zero_data(op, Perturbation.zero(), u0=u0).values
            assert np.max(np.abs(unperturbed - want)) > 1e-3 * np.max(np.abs(want))


def test_degenerate_rank_one_carrier_raises():
    """With B = C = 0 and cl(dt) = J, a real carrier with Gaussians at 0.3 and
    0.7 in its two components gives <w, a> = 2 pi 0.05^2; scaled so that
    <w, a> = 1, zero data has the nonzero solution S w (the rank-one
    counterexample), and the march says so instead of dividing by ~1e-16."""
    grid = Grid1D.uniform(1.0, 513)
    zeros = np.zeros((grid.n, 2, 2), dtype=complex)
    op = DiracOperator(grid, J, zeros, zeros.copy())
    a = np.stack([np.exp(-((grid.t - c) ** 2) / (2 * 0.05 ** 2)) for c in (0.3, 0.7)],
                 axis=1).astype(complex)
    u0 = np.array([0.6, 0.3 + 0.2j])
    _, pair_w = augmented_stage_rk4(op, Perturbation.rank_one(SpinorField(grid, a)), u0)
    assert abs(pair_w - 2.0 * np.pi * 0.05 ** 2) < 1e-6
    integrate_zero_data(op, Perturbation.rank_one(SpinorField(grid, 0.5 * a)), u0=u0)
    degenerate = Perturbation.rank_one(SpinorField(grid, a / np.sqrt(pair_w.real)))
    with pytest.raises(PreconditionError, match="degenerate"):
        integrate_zero_data(op, degenerate, u0=u0)


def test_march_overflow_raises_typed_error():
    """A march that overflows ends in FlowInstabilityError, not in a
    non-finite field, for every kind; numpy prints no RuntimeWarning."""
    grid = Grid1D.uniform(1e4, 257)
    op = model_operator_1d(grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for P in all_kinds(grid):
            with pytest.raises(FlowInstabilityError, match="overflow"):
                integrate_zero_data(op, P, u0=np.array([1e-12, 0.0j]))


def test_three_point_grid_integrates_every_kind():
    grid = Grid1D.uniform(0.1, 3)
    op = model_operator_1d(grid)
    a = bump_field(grid, 0.05, 0.03)
    kinds = all_kinds(grid) + [Perturbation.matrix_field(a, np.ones((grid.n, 2, 2)))]
    for P in kinds:
        u = integrate_zero_data(op, P, u0=np.array([1.0, 0.5j]))
        assert u.values.shape == (3, 2)
        assert np.all(np.isfinite(u.values)) and u.sup_norm() > 0.0
