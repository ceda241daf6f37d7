import numpy as np
import pytest

from ucp_lab import operators
from ucp_lab.carleman import (CarlemanGeometry, appendix_decomposition, bump_cutoff,
                              cutoff_bump_sampler, smoothstep)
from ucp_lab.clifford import SIGMA, frame
from ucp_lab.errors import DomainMismatchError
from ucp_lab.fields import AnnulusGrid, Grid1D, SpinorField
from ucp_lab.operators import (DiracOperator, absorb_homomorphism, annulus_operator,
                               constant_operator_1d, dirac_apply, model_operator_1d,
                               slice_adjoint, time_derivative)
from ucp_lab.perturbations import Perturbation


def free_operator_1d(grid):
    zeros = np.zeros((grid.n, 2, 2), dtype=complex)
    return DiracOperator(grid, frame(1)[0], zeros.copy(), zeros.copy())


def test_apply_zero_field():
    grid = Grid1D.uniform(1.0, 64)
    op = model_operator_1d(grid)
    out = dirac_apply(op, grid.zeros())
    assert out.sup_norm() == 0.0


def test_apply_exponential_against_analytic_derivative():
    lam = 1.3
    errs = []
    for n in (129, 257, 513):
        grid = Grid1D.uniform(1.0, n)
        op = free_operator_1d(grid)
        vals = np.zeros((n, 2), dtype=complex)
        vals[:, 0] = np.exp(lam * grid.t)
        out = dirac_apply(op, SpinorField(grid, vals))
        expected = op.apply_cl_dt(lam * vals)
        errs.append(np.max(np.abs(out.values - expected)))
    orders = np.diff(np.log(errs)) / np.log(0.5)
    assert np.all(orders >= 1.9)


def test_domain_mismatch_raises():
    op = model_operator_1d(Grid1D.uniform(1.0, 64))
    other = Grid1D.uniform(1.0, 65)
    with pytest.raises(DomainMismatchError):
        dirac_apply(op, other.zeros())


def product_decompose(raw, grid):
    """Split raw pointwise tangential operators into self-adjoint and skew
    parts: absorb_homomorphism of cl(dt) raw into a zero-coefficient operator."""
    r = raw.shape[-2]
    cl_dt = np.kron(np.eye(r // 2), frame(1)[0])   # unitary, so cl(dt)^* cl(dt) = I
    zeros = np.zeros((grid.n, r, r), dtype=complex)
    return absorb_homomorphism(DiracOperator(grid, cl_dt, zeros, zeros.copy()),
                               cl_dt @ raw)


def test_product_decompose_self_adjoint_and_skew_inputs():
    grid = Grid1D.uniform(1.0, 16)
    herm = np.array([[1.0, 2.0 - 1j], [2.0 + 1j, -0.5]])
    raw = np.broadcast_to(herm, (grid.n, 2, 2))
    op = product_decompose(raw, grid)
    assert np.max(np.abs(op.C)) < 1e-15

    skew = np.array([[1j, 0.3], [-0.3, -2j]])
    raw = np.broadcast_to(skew, (grid.n, 2, 2))
    op = product_decompose(raw, grid)
    assert np.max(np.abs(op.B)) < 1e-15


def test_product_decompose_rejects_non_square_slices():
    grid = Grid1D.uniform(1.0, 8)
    with pytest.raises(DomainMismatchError):
        product_decompose(np.zeros((grid.n, 2, 3)), grid)


def test_product_decompose_reassembles_random_slices():
    rng = np.random.default_rng(11)
    grid = Grid1D.uniform(1.0, 8)
    raw = rng.standard_normal((grid.n, 4, 4)) + 1j * rng.standard_normal((grid.n, 4, 4))
    op = product_decompose(raw, grid)
    assert np.max(np.abs((op.B + op.C) - raw)) < 1e-14
    assert np.max(np.abs(op.B - slice_adjoint(op.B))) < 1e-14
    assert np.max(np.abs(op.C + slice_adjoint(op.C))) < 1e-14


def test_model_operator_slice_structure():
    grid = Grid1D.uniform(0.1, 257)
    op = model_operator_1d(grid)
    scale = max(np.max(np.abs(op.B)), 1.0)
    assert np.max(np.abs(op.B - slice_adjoint(op.B))) < 1e-12 * scale
    assert np.max(np.abs(op.C + slice_adjoint(op.C))) < 1e-12 * scale
    norms = np.linalg.norm(op.B, ord=2, axis=(1, 2))
    assert np.max(norms) <= 1.0 + 1e-12


def test_model_operator_matches_per_slice_formula():
    # reference: the coefficients evaluated one slice at a time
    grid = Grid1D.uniform(0.1, 33)
    op = model_operator_1d(grid)
    s1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    s3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    J = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
    T = float(grid.t[-1] - grid.t[0])
    B = np.stack([1.0 * (0.6 * np.cos(2.0 * np.pi * t / T) * s3 + 0.4 * s1) for t in grid.t])
    C = np.stack([0.5 * np.sin(2.0 * np.pi * t / T) * J for t in grid.t])
    assert np.array_equal(op.B, B) and np.array_equal(op.C, C)


def test_absorb_homomorphism_identity_and_symmetric_case():
    grid = Grid1D.uniform(1.0, 32)
    op = model_operator_1d(grid)
    unchanged = absorb_homomorphism(op, np.zeros((grid.n, 2, 2)))
    assert np.max(np.abs(unchanged.B - op.B)) < 1e-15
    assert np.max(np.abs(unchanged.C - op.C)) < 1e-15

    sym = np.array([[0.4, 0.1], [0.1, -0.2]], dtype=complex)
    R = np.einsum("ij,tjk->tik", op.cl_dt, np.broadcast_to(sym, (grid.n, 2, 2)))
    shifted = absorb_homomorphism(op, R)
    assert np.max(np.abs(shifted.C - op.C)) < 1e-14
    assert np.max(np.abs(shifted.B - op.B)) > 1e-3


@pytest.mark.parametrize("make", ["interval", "annulus"])
def test_absorb_homomorphism_pointwise_sum_oracle(make):
    rng = np.random.default_rng(7)
    if make == "interval":
        grid = Grid1D.uniform(1.0, 65)
        op = model_operator_1d(grid)
        shape = (grid.n, 2, 2)
        vshape = (grid.n, 2)
    else:
        grid = AnnulusGrid.uniform(0.5, 17, 12)
        op = annulus_operator(grid)
        shape = (grid.n, grid.n_theta, 2, 2)
        vshape = (grid.n, grid.n_theta, 2)
    R = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    u = SpinorField(grid, rng.standard_normal(vshape) + 1j * rng.standard_normal(vshape))
    combined = dirac_apply(absorb_homomorphism(op, R), u)
    direct = dirac_apply(op, u).values + np.einsum("...ij,...j->...i", R, u.values)
    scale = max(np.max(np.abs(direct)), 1.0)
    assert np.max(np.abs(combined.values - direct)) < 1e-12 * scale


def _periodic_derivative_matrix(n, h):
    """Centered-difference d/dtheta on a uniform periodic grid (exactly skew)."""
    D = np.zeros((n, n))
    idx = np.arange(n)
    D[idx, (idx + 1) % n] = 1.0 / (2.0 * h)
    D[idx, (idx - 1) % n] = -1.0 / (2.0 * h)
    return D


def _dense_annulus_matrix(grid):
    """Independent dense assembly of the annulus operator via kron products."""
    n_t, n_o = grid.n, grid.n_theta
    h = grid.spacing
    Dt = np.zeros((n_t, n_t))
    for i in range(1, n_t - 1):
        Dt[i, i - 1], Dt[i, i + 1] = -1.0 / (2 * h), 1.0 / (2 * h)
    Dt[0, 0:3] = np.array([-3.0, 4.0, -1.0]) / (2 * h)
    Dt[-1, -3:] = np.array([1.0, -4.0, 3.0]) / (2 * h)

    Dtheta = _periodic_derivative_matrix(n_o, 2 * np.pi / n_o)
    isigma3 = np.array([[1j, 0], [0, -1j]])
    g1, g2 = frame(2)
    theta = grid.theta

    m = n_t * n_o * 2
    full = np.zeros((m, m), dtype=complex)
    full += np.kron(Dt, np.eye(n_o * 2))
    radial = np.diag(1.0 / grid.radii())
    full += np.kron(radial, np.kron(Dtheta, isigma3))
    cl_blocks = np.zeros((n_o * 2, n_o * 2), dtype=complex)
    for o in range(n_o):
        cl_blocks[2 * o:2 * o + 2, 2 * o:2 * o + 2] = (np.cos(theta[o]) * g1
                                                       + np.sin(theta[o]) * g2)
    return np.kron(np.eye(n_t), cl_blocks) @ full


def test_annulus_single_mode_against_dense_matrix():
    grid = AnnulusGrid.uniform(0.5, 17, 12)
    op = annulus_operator(grid)
    dense = _dense_annulus_matrix(grid)
    f = np.exp(-((grid.t - 0.25) ** 2) / 0.01)
    for mode in (0, 1, 3):
        angular = np.exp(1j * mode * grid.theta)
        vals = f[:, None, None] * angular[None, :, None] * np.array([1.0, 0.5j])
        u = SpinorField(grid, vals)
        out = dirac_apply(op, u).values.reshape(-1)
        oracle = dense @ vals.reshape(-1)
        assert np.max(np.abs(out - oracle)) < 1e-10 * max(np.max(np.abs(oracle)), 1.0)


def _random_annulus_fields(rng, grid):
    shape = (grid.n, grid.n_theta, 2)
    R = rng.standard_normal(shape + (2,)) + 1j * rng.standard_normal(shape + (2,))
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return R, vals


@pytest.mark.parametrize("absorb", [False, True])
def test_annulus_random_fields_against_dense_matrix(absorb):
    rng = np.random.default_rng(21)
    grid = AnnulusGrid.uniform(0.5, 17, 12)
    op = annulus_operator(grid)
    dense = _dense_annulus_matrix(grid)
    R, vals = _random_annulus_fields(rng, grid)
    oracle = dense @ vals.reshape(-1)
    if absorb:
        op = absorb_homomorphism(op, R)
        oracle += np.einsum("...ij,...j->...i", R, vals).reshape(-1)
    out = dirac_apply(op, SpinorField(grid, vals)).values.reshape(-1)
    assert np.max(np.abs(out - oracle)) < 1e-12 * np.max(np.abs(oracle))


def _slice_matrices(apply, grid):
    """(n_t, m, m) slice matrices of a tangential apply, m = n_theta * 2."""
    m = grid.n_theta * 2
    basis = np.broadcast_to(np.eye(m)[:, None, :], (m, grid.n, m))
    out = apply(basis.reshape(m, grid.n, grid.n_theta, 2).astype(complex))
    return np.transpose(out.reshape(m, grid.n, m), (1, 2, 0))


def test_annulus_tangential_parts():
    grid = AnnulusGrid.uniform(0.5, 9, 16)
    op = annulus_operator(grid)
    B = _slice_matrices(op.apply_B, grid)
    C = _slice_matrices(op.apply_C, grid)
    scale = np.max(np.abs(B))
    assert scale > 0.0
    assert np.max(np.abs(B - slice_adjoint(B))) < 1e-12 * scale
    assert np.max(np.abs(C)) < 1e-13 * scale  # flat-metric split has no skew part


def test_annulus_jterms_against_dense_slices():
    """J-terms of the structured operator against dense B, B' and [B, C]."""
    rng = np.random.default_rng(5)
    geom = CarlemanGeometry.annulus(0.1, 33, 12)
    grid = geom.grid
    R_hom, noise = _random_annulus_fields(rng, grid)
    op = absorb_homomorphism(annulus_operator(grid), 0.5 * R_hom)
    t = grid.t
    profile = bump_cutoff(geom, t) * smoothstep(t / (0.15 * geom.T))
    v = SpinorField(grid, profile[:, None, None] * noise)
    R = 50.0
    rec = appendix_decomposition(op, Perturbation.zero(), v, R, geom)

    n_t, m = grid.n, grid.n_theta * 2
    circle = np.kron(_periodic_derivative_matrix(grid.n_theta, 2 * np.pi / grid.n_theta),
                     np.diag([1j, -1j]))

    def block_diag(P):
        out = np.zeros((n_t, m, m), dtype=complex)
        for o in range(grid.n_theta):
            out[:, 2 * o:2 * o + 2, 2 * o:2 * o + 2] = P[:, o]
        return out

    B = circle[None] / grid.radii()[:, None, None] + block_diag(op.B)
    C = block_diag(op.C)
    Bprime = time_derivative(B, grid.spacing)
    comm = B @ C - C @ B

    def slices(M, x):
        return np.einsum("tmk,tk->tm", M, x.reshape(n_t, m)).reshape(x.shape)

    w = grid.quad_weights()

    def wip(x, y):
        return float(np.sum(w * np.real(np.sum(x * np.conj(y), axis=-1))))

    prof = (geom.T - t)[:, None, None]
    v0 = np.exp(0.5 * R * prof ** 2) * v.values
    skew = time_derivative(v0, grid.spacing) + slices(C, v0)
    sym = slices(B, v0) + R * prof * v0
    want = {"j0": wip(v0, v0), "j1": wip(skew + sym, skew + sym),
            "j_skew": wip(skew, skew), "j_sym": wip(sym, sym),
            "j_mix": 2.0 * wip(skew, sym), "j3": wip(v0, slices(-Bprime + comm, v0))}
    scale = max(abs(x) for x in want.values())
    assert abs(want["j3"]) > 1e-6 * scale  # the commutator and B' terms are exercised
    for name, value in want.items():
        assert abs(getattr(rec, name) - value) <= 1e-12 * scale, name


def test_zero_parts_and_the_zero_perturbation_form_no_fiber_product(monkeypatch):
    """The flat annulus multiplies only by cl(dr); an absorbed homomorphism
    brings one tangential product back, by the stored generator B + C."""
    products = []

    def counting(M, w):
        products.append(M)
        return np.einsum("...ij,...j->...i", M, w)

    monkeypatch.setattr(operators, "_fiber_apply", counting)
    geom = CarlemanGeometry.annulus(0.1, 33, 12)
    grid = geom.grid
    v = cutoff_bump_sampler(geom)(np.random.default_rng(4))
    op = annulus_operator(grid)
    dirac_apply(op, v)
    assert len(products) == 1 and products[0] is op.cl_dt
    products.clear()
    appendix_decomposition(op, Perturbation.zero(), v, 50.0, geom)
    assert products == []

    R_hom, _ = _random_annulus_fields(np.random.default_rng(5), grid)
    absorbed = absorb_homomorphism(op, 0.5 * R_hom)
    dirac_apply(absorbed, v)
    assert [id(M) for M in products] == [id(absorbed.generator), id(absorbed.cl_dt)]
    products.clear()
    appendix_decomposition(absorbed, Perturbation.zero(), v, 50.0, geom)
    assert any(M is absorbed.B for M in products)
    assert any(M is absorbed.C for M in products)


def test_dirac_apply_equals_the_separate_products():
    """cl(dt)(d/dt + generator) equals cl(dt)(d/dt + B + C) with B u, C u and
    cl(dt) w formed as three fiber products, within 1e-15 relative."""
    def fiber(M, w):
        return np.einsum("...ij,...j->...i", M, w)

    rng = np.random.default_rng(8)
    grid = Grid1D.uniform(0.1, 257)
    R = np.exp(1j * grid.t)[:, None, None] * np.array([[0.3, 0.5], [-0.2, 0.4j]])
    raw4 = rng.standard_normal((grid.n, 4, 4)) + 1j * rng.standard_normal((grid.n, 4, 4))
    for op in (model_operator_1d(grid), constant_operator_1d(grid),
               absorb_homomorphism(model_operator_1d(grid), R), product_decompose(raw4, grid)):
        r = op.cl_dt.shape[-1]
        u = rng.standard_normal((grid.n, r)) + 1j * rng.standard_normal((grid.n, r))
        w = time_derivative(u, grid.spacing) + fiber(op.B, u) + fiber(op.C, u)
        want = fiber(np.broadcast_to(op.cl_dt, op.B.shape), w)
        got = dirac_apply(op, SpinorField(grid, u)).values
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_generator_is_stored_once_and_none_for_zero_parts():
    grid = Grid1D.uniform(1.0, 33)
    op = model_operator_1d(grid)
    assert op.generator is op.generator
    assert np.array_equal(op.generator, op.B + op.C)
    assert free_operator_1d(grid).generator is None
    assert annulus_operator(AnnulusGrid.uniform(0.1, 9, 8)).generator is None


@pytest.mark.parametrize("n_theta", [7, 12, 64])
def test_reciprocal_scaling_and_slice_stencil_match_division_and_roll(n_theta):
    """time_derivative and the circle term equal the division and np.roll forms
    bit for bit, at spacings that are not powers of two."""
    rng = np.random.default_rng(n_theta)
    grid = AnnulusGrid.uniform(0.1, 9, n_theta)
    w = (rng.standard_normal((3,) + grid.shape + (2,))
         + 1j * rng.standard_normal((3,) + grid.shape + (2,)))
    for h in (grid.spacing, 1.0 / 3.0, 2.0 * np.pi / n_theta):
        old = np.empty_like(w[0])
        old[1:-1] = (w[0, 2:] - w[0, :-2]) / (2.0 * h)
        old[0] = (-3.0 * w[0, 0] + 4.0 * w[0, 1] - w[0, 2]) / (2.0 * h)
        old[-1] = (3.0 * w[0, -1] - 4.0 * w[0, -2] + w[0, -3]) / (2.0 * h)
        assert np.array_equal(time_derivative(w[0], h).view(np.uint64), old.view(np.uint64))

    a = rng.uniform(0.5, 3.0, grid.n)
    h = 2.0 * np.pi / n_theta
    d_theta = (np.roll(w, -1, axis=-2) - np.roll(w, 1, axis=-2)) / (2.0 * h)
    old = a[:, None, None] * (1j * np.diagonal(SIGMA[2])) * d_theta
    new = annulus_operator(grid)._circle(a, w)  # with a leading batch axis
    assert np.array_equal(new.view(np.uint64), old.view(np.uint64))


def _row_by_row_time_derivative(values, h):
    """Oracle: the end rows formed one at a time, six numpy calls each."""
    scale = 1.0 / (2.0 * h)
    out = np.empty_like(values)
    np.subtract(values[2:], values[:-2], out=out[1:-1])
    out[1:-1] *= scale
    out[0] = (-3.0 * values[0] + 4.0 * values[1] - values[2]) * scale
    out[-1] = (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) * scale
    return out


def _time_derivative_inputs(geom):
    """Sampler fields (exactly zero at both ends), all-zero fields and fields
    whose end rows hold every sign of zero next to nonzero entries."""
    sampler, rng = cutoff_bump_sampler(geom), np.random.default_rng(geom.grid.n)
    fields = [sampler(np.random.Generator(np.random.Philox(i))).values for i in range(4)]
    fields.append(np.zeros_like(fields[0]))
    parts = np.array([0.0, -0.0, 0.0, -0.0, 1.5, -2.0])
    for _ in range(64):
        v = rng.standard_normal(fields[0].shape) + 1j * rng.standard_normal(fields[0].shape)
        for rows in (slice(0, 3), slice(-3, None)):
            v[rows] = (rng.choice(parts, v[rows].shape)
                       + 1j * rng.choice(parts, v[rows].shape))
        fields.append(v)
    fields.append(-fields[0])                       # -0.0 where the sampler had 0.0
    return fields


@pytest.mark.parametrize("geom", [CarlemanGeometry.interval(0.1, 257),
                                  CarlemanGeometry.interval(0.1, 3),
                                  CarlemanGeometry.annulus(0.5, 17, 8)])
def test_stacked_end_rows_keep_the_row_by_row_bits(geom):
    """time_derivative's one stacked end-row expression against the row-by-row
    form, bit for bit (signed zeros included), on complex fields, real
    coefficients a(t) and fiber matrices."""
    h = geom.grid.spacing
    fields = _time_derivative_inputs(geom)
    inputs = (fields + [v.real.copy() for v in fields] + [v[..., 0].real.copy() for v in fields]
              + [fields[5][..., None] * fields[6][..., None, :]])
    for v in inputs:
        want = _row_by_row_time_derivative(v, h)
        got = time_derivative(v, h)
        assert got.dtype == want.dtype
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_annulus_symmetric_principal_part():
    """<Du, v> + <u, Dv> stays bounded under refinement (no derivative growth)."""

    def smooth_fields(grid):
        t, theta = grid.t, grid.theta
        f = np.sin(2 * np.pi * t / t[-1])[:, None] * np.exp(1j * 2 * theta)[None, :]
        g = np.cos(np.pi * t / t[-1])[:, None] * np.exp(-1j * theta)[None, :]
        u = np.stack([f, 0.3 * f], axis=-1)
        v = np.stack([0.5 * g, g], axis=-1)
        return SpinorField(grid, u), SpinorField(grid, v)

    values = []
    for n_t, n_o in ((17, 16), (33, 32), (65, 64)):
        grid = AnnulusGrid.uniform(0.5, n_t, n_o)
        op = annulus_operator(grid)
        u, v = smooth_fields(grid)
        w = grid.quad_weights()

        def pair(x, y):
            return np.sum(w * np.sum(x.values * np.conj(y.values), axis=-1))

        defect = abs(pair(dirac_apply(op, u), v) + pair(u, dirac_apply(op, v)))
        norm = np.sqrt(abs(pair(u, u)) * abs(pair(v, v)))
        values.append(defect / norm)
    # bounded by a zeroth-order constant: no growth as the grid refines
    assert values[2] < 2.0 * values[0] + 1.0
    assert max(values) < 10.0
