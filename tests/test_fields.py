"""Grid carriers: the declared value shape and the check on t."""
import numpy as np
import pytest

from ucp_lab.errors import DomainMismatchError
from ucp_lab.fields import AnnulusGrid, Grid1D, SpinorField


def test_annulus_with_two_slices_is_rejected():
    # the centred t-stencil of the Dirac operator needs three slices
    with pytest.raises(ValueError):
        AnnulusGrid.uniform(0.5, 2, 8)


def test_annulus_without_circle_points_is_rejected():
    with pytest.raises(ValueError):
        AnnulusGrid.uniform(0.5, 9, 0)


def test_nonuniform_t_is_rejected():
    # the stencils read one spacing, t[1] - t[0]
    with pytest.raises(ValueError):
        Grid1D(np.array([0, .1, .15, .4, .41]))


@pytest.mark.parametrize("t", [np.array([0.0, 0.2, 0.1]), np.array([0.0, 0.0, 0.0]),
                               np.zeros((3, 3)), np.array([0.0, np.nan, 0.2])])
def test_decreasing_flat_or_malformed_t_is_rejected(t):
    with pytest.raises(ValueError):
        Grid1D(t)


def test_linspace_grids_pass_the_uniformity_check():
    for t_max, n in ((4.0, 131073), (0.1, 16385), (1e-3, 5)):
        assert Grid1D.uniform(t_max, n).n == n
        assert AnnulusGrid.uniform(t_max, n, 1).shape == (n, 1)


def test_fields_take_the_declared_shape():
    line, annulus = Grid1D.uniform(1.0, 5), AnnulusGrid.uniform(0.5, 9, 4)
    assert line.zeros().values.shape == (5, 2)
    assert annulus.zeros().values.shape == (9, 4, 2)
    for grid in (line, annulus):  # weights broadcast against the value shape
        assert np.broadcast_shapes(grid.quad_weights().shape, grid.shape) == grid.shape
    with pytest.raises(DomainMismatchError):
        SpinorField(annulus, np.zeros((9, 2)))


def test_quad_weights_are_formed_once_and_read_only():
    for grid in (Grid1D.uniform(1.0, 5), AnnulusGrid.uniform(0.5, 9, 4)):
        w = grid.quad_weights()
        assert grid.quad_weights() is w and not w.flags.writeable
        with pytest.raises(ValueError):
            w[0] = 1.0
