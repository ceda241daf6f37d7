import numpy as np
import pytest

from ucp_lab import operators, torus
from ucp_lab.clifford import J, SIGMA, fiber_inner, fiber_inner_real, frame
from ucp_lab.fields import AnnulusGrid, Grid1D, fiber_norm2


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_clifford_relations(dim):
    fr = frame(dim)
    eye = np.eye(fr.shape[-1])
    for j in range(dim):
        gj = fr[j]
        for k in range(dim):
            gk = fr[k]
            anti = gj @ gk + gk @ gj
            target = -2.0 * eye if j == k else 0.0 * eye
            assert np.max(np.abs(anti - target)) < 1e-14


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_skew_symmetry_against_fiber_metric(dim):
    fr = frame(dim)
    rng = np.random.default_rng(3)
    for j in range(dim):
        s = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        sp = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        gs = fr[j] @ s
        gsp = fr[j] @ sp
        assert abs(fiber_inner(gs, sp) + fiber_inner(s, gsp)) < 1e-14
        # <g s, s> + <s, g s> = 0
        assert abs(fiber_inner(gs, s) + fiber_inner(s, gs)) < 1e-14


def test_generator_squares_to_minus_identity_on_vectors():
    fr = frame(2)
    rng = np.random.default_rng(5)
    s = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    g = fr[0]
    assert np.allclose(g @ (g @ s), -s, atol=1e-14)


def test_dim3_generators_anticommute_by_explicit_product():
    g1, g2, _ = frame(3)
    # direct 2x2 matrix-product oracle
    prod12 = np.array([[sum(g1[i, k] * g2[k, j] for k in range(2)) for j in range(2)]
                       for i in range(2)])
    prod21 = np.array([[sum(g2[i, k] * g1[k, j] for k in range(2)) for j in range(2)]
                       for i in range(2)])
    assert np.max(np.abs(prod12 + prod21)) < 1e-15


def test_convention_is_read_from_the_clifford_module():
    """The torus generators, the 1-D cl(dt) and the annulus circle term are the
    clifford matrices, which no caller can overwrite."""
    assert np.array_equal(torus._GEN, 1j * SIGMA)
    assert np.array_equal(frame(3), 1j * SIGMA)
    assert np.array_equal(operators.model_operator_1d(Grid1D.uniform(1.0, 8)).cl_dt, J)
    grid = AnnulusGrid.uniform(1.0, 3, 8)
    w = _complex(np.random.default_rng(2), grid.shape + (2,))
    d_theta = (np.roll(w, -1, axis=-2) - np.roll(w, 1, axis=-2)) / (2.0 * 2.0 * np.pi / 8)
    circle = operators.annulus_operator(grid)._circle(np.ones(grid.n), w)
    assert np.array_equal(circle, np.einsum("ij,...j->...i", 1j * SIGMA[2], d_theta))
    for matrix in (SIGMA, J):
        with pytest.raises(ValueError):
            matrix[..., 0, 0] = 0.0


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_fiber_kernels_match_reductions_over_the_fiber_axis():
    rng = np.random.default_rng(11)
    values = _complex(rng, (129, 64, 2))
    cases = [
        (_complex(rng, (257, 2)), _complex(rng, (257, 2))),     # interval field
        (values, _complex(rng, (129, 64, 2))),                  # annulus field
        (values[:-1:2], values[1::2]),                          # strided slices
        (values.transpose(1, 0, 2).copy().transpose(1, 0, 2),   # Fortran-ordered copy
         values[:, ::-1]),
        (values, _complex(rng, 2)),                             # broadcast coefficient
        (_complex(rng, (257, 2)), np.broadcast_to(_complex(rng, 2), (257, 2))),
    ]
    for x, y in cases:
        inner = fiber_inner(x, y)
        want = np.sum(x * np.conj(y), -1)
        assert inner.shape == want.shape
        scale = np.max(np.abs(x)) * np.max(np.abs(y))
        assert np.max(np.abs(inner - want)) <= 1e-15 * scale
        norm2 = fiber_norm2(x)
        assert norm2.dtype == float
        assert np.max(np.abs(norm2 - np.sum(np.abs(x) ** 2, -1))) <= 1e-15 * np.max(norm2)


def test_real_fiber_product_is_the_real_part_bit_for_bit():
    """fiber_inner_real reads Re <x, y> from the (re, im) pairs; it adds the
    same products in the same order as the einsum, so the bits agree, signed
    zeros included, for every fiber rank and memory layout."""
    rng = np.random.default_rng(12)
    values = _complex(rng, (129, 64, 2))
    cases = [(values, _complex(rng, (129, 64, 2))), (values, values),
             (values[:-1:2], values[1::2]), (values[:, ::-1], values.transpose(1, 0, 2).copy().transpose(1, 0, 2)),
             (values, _complex(rng, 2)), (1e-160 * values, values), (-0.0 * values, values),
             (np.real(values), values)]
    cases += [(_complex(rng, (33, r)), _complex(rng, (33, r))) for r in range(1, 10)]
    for x, y in cases:
        want = fiber_inner(x, y).real
        got = fiber_inner_real(x, y)
        assert got.shape == want.shape
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
