import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucp_lab.clifford import fiber_inner, frame
from ucp_lab.counterexamples import rank_one_counterexample
from ucp_lab.errors import DomainMismatchError
from ucp_lab.fields import Grid1D, SpinorField, fiber_norm2, l2_inner
from ucp_lab.operators import (DiracOperator, absorb_homomorphism,
                               constant_operator_1d, model_operator_1d)
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


def whole_field_rank_one(a):
    """<u, a>_{L2} a as a generic whole-field map, without the running sum."""
    return Perturbation(a, field=lambda u: l2_inner(u, a) * a.values)


def all_kinds(grid):
    a = bump_field(grid, 1.0, 0.3)
    return [Perturbation.zero(), Perturbation.pointwise(a), whole_field_rank_one(a),
            Perturbation.rank_one(a)]


def test_zero_input_maps_to_zero_for_every_kind(grid):
    u = grid.zeros()
    for P in all_kinds(grid):
        assert eval_perturbation(P, u).sup_norm() == 0.0


def test_pointwise_with_vanishing_profile(grid):
    P = Perturbation.pointwise(grid.zeros())
    u = bump_field(grid, 0.7, 0.2)
    assert eval_perturbation(P, u).sup_norm() == 0.0


def test_rank_one_reproduces_branch_pairing():
    sol, a = rank_one_counterexample()
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
    u = bump_field(grid, 1.0, 0.2)
    w = grid.quad_weights()[:, None]
    # the kernel k = 1 as a whole-field map: P(v)(x) = |int v| v(x)
    P = Perturbation(u, field=lambda v: np.sqrt(fiber_norm2(np.sum(w * v.values, axis=0)))
                     * v.values)
    res = admissibility_bound(P, u)
    oracle = np.trapezoid(u.values[:, 0].real, grid.t)  # int u over the domain
    assert res.admissible
    assert abs(res.c0 - abs(oracle)) < 1e-10


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
    """The zero kind skips the perturbation term; marching a pointwise kind
    with an all-zero carrier, which keeps it, gives the same bits."""
    grid = Grid1D.uniform(0.1, 1025)
    op = model_operator_1d(grid)
    u0 = np.array([1e-12, 0.3e-12j])
    skipped = integrate_zero_data(op, Perturbation.zero(), u0=u0)
    kept = integrate_zero_data(op, Perturbation.pointwise(grid.zeros()), u0=u0)
    assert np.array_equal(skipped.values, kept.values)
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
    same products and sums, in the same order, as numpy, so the zero and
    pointwise marches at the suites' 1e-12 data are bit-identical.  numpy's
    matmul fuses multiply-adds for a complex generator, and the matrix kind
    folds M into the generator, so there the two agree to rounding."""
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
                    if op is model and P.matrix is None and scale == 1e-12:
                        assert np.array_equal(got, want), n
                    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want)), n


def test_march_rejects_slice_data_of_another_rank():
    op = model_operator_1d(Grid1D.uniform(1.0, 9))
    with pytest.raises(DomainMismatchError, match=r"expected \(2,\)"):
        integrate_zero_data(op, Perturbation.zero(), u0=np.ones(3))


def test_nonlocal_kind_is_evaluated_once_per_step():
    # rank-one never evaluates its whole field: it keeps a running <u, a>
    grid = Grid1D.uniform(1.0, 65)
    a = bump_field(grid, 0.5, 0.2)
    for P, evaluations in ((Perturbation.rank_one(a), 0),
                           (whole_field_rank_one(a), grid.n - 1)):
        calls = []
        field = P.field
        P.field = lambda u: calls.append(1) or field(u)
        integrate_zero_data(model_operator_1d(grid), P, u0=np.array([1.0, 0.5j]))
        assert len(calls) == evaluations


def test_rank_one_running_sum_matches_whole_field_reevaluation():
    """The oracle freezes <u, a>_{L2} a from the whole marched field at every
    step, as a generic nonlocal kind; the running sum adds the summands in
    another order, so the two agree to rounding."""
    u0 = np.array([0.6, 0.3 + 0.2j])
    for T in (0.1, 2.0):
        for n in (3, 4, 65, 1025):
            grid = Grid1D.uniform(T, n)
            op = model_operator_1d(grid)
            a = SpinorField(grid, bump_field(grid, 0.4 * T, 0.2 * T).values
                            * np.array([3.0, 1.0 - 2.0j]))
            want = integrate_zero_data(op, whole_field_rank_one(a), u0=u0).values
            got = integrate_zero_data(op, Perturbation.rank_one(a), u0=u0).values
            unperturbed = integrate_zero_data(op, Perturbation.zero(), u0=u0).values
            scale = np.max(np.abs(want))
            assert np.max(np.abs(got - want)) <= 1e-13 * scale, (T, n)
            assert np.max(np.abs(unperturbed - want)) > 1e-3 * scale  # the term acts


def test_rank_one_march_converges_at_second_order():
    """The frozen rank-one term is held at S_i over a step and taken linear
    between its two rows, so the march is second order, not the fourth of
    the stage-by-stage kinds; a step-matrix march must keep that order."""
    def rank_one(grid):
        return Perturbation.rank_one(bump_field(grid, 0.5, 0.2))

    orders = march_orders(model_operator_1d, rank_one, (129, 257, 513, 1025), 1.0)
    assert 1.9 <= min(orders) and max(orders) <= 2.1, orders


def stage_rk4(op, P, u0):
    """Oracle: the nonlocal march stage by stage, one rhs call per RK4 stage,
    with the frozen rows taken linear in the stage time."""
    grid, h, cl_inv = op.grid, op.grid.spacing, -op.cl_dt
    tangential = _stages(op.B + op.C)
    values = np.zeros((grid.n, len(u0)), dtype=complex)
    values[0] = u0
    w, pairing = grid.quad_weights(), 0.0
    for i in range(grid.n - 1):
        y = values[i]
        if P.l2_pairing:
            pairing = pairing + w[i] * np.vdot(P.a.values[i], y)
            frozen = pairing * P.a.values[i:i + 2]
        else:
            frozen = P.field(SpinorField(grid, values))[i:i + 2]

        def rhs(s, y):
            return -tangential[s][i] @ y - cl_inv @ ((1.0 - s) * frozen[0] + s * frozen[1])

        k1 = rhs(0.0, y)
        k2 = rhs(0.5, y + 0.5 * h * k1)
        k3 = rhs(0.5, y + 0.5 * h * k2)
        k4 = rhs(1.0, y + h * k3)
        values[i + 1] = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return values


def test_affine_step_matches_stage_rk4():
    u0 = np.array([0.6, 0.3 + 0.2j])
    for n in (3, 4, 65, 1025):
        grid = Grid1D.uniform(2.0, n)
        R = np.exp(1j * grid.t)[:, None, None] * np.array([[0.3, 0.5], [-0.2, 0.4j]])
        a = SpinorField(grid, bump_field(grid, 0.8, 0.4).values * np.array([3.0, 1.0 - 2.0j]))
        for op in (model_operator_1d(grid), absorb_homomorphism(model_operator_1d(grid), R)):
            for P in (Perturbation.rank_one(a), whole_field_rank_one(a)):
                want = stage_rk4(op, P, u0)
                got = integrate_zero_data(op, P, u0=u0).values
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), n


def test_three_point_grid_integrates_every_kind():
    grid = Grid1D.uniform(0.1, 3)
    op = model_operator_1d(grid)
    a = bump_field(grid, 0.05, 0.03)
    kinds = all_kinds(grid) + [Perturbation.matrix_field(a, np.ones((grid.n, 2, 2)))]
    for P in kinds:
        u = integrate_zero_data(op, P, u0=np.array([1.0, 0.5j]))
        assert u.values.shape == (3, 2)
        assert np.all(np.isfinite(u.values)) and u.sup_norm() > 0.0
