"""Boundary data generators and the initial iterate."""

import numpy as np
import pytest

from vacmin.boundary import (angular, constant, initial_field, make_boundary,
                             random_smooth)
from vacmin.field import BOUNDARY, Grid, VectorField
from vacmin.potentials import power, quadratic


def test_constant_generator(small_grid):
    pot = quadratic([0.3, -0.2])
    g = constant(pot.zero)(small_grid.coords)
    assert np.allclose(g[0], 0.3) and np.allclose(g[1], -0.2)


def test_angular_fixed_modulus(small_grid):
    pot = quadratic([0.0, 0.0])
    fn = angular(pot, 0.5, windings=2)
    vals = fn(small_grid.coords)
    rho = np.sqrt(np.sum(vals ** 2, axis=0))
    assert np.abs(rho - 0.5).max() < 1e-12
    # the direction winds: values at theta and theta + pi/2 differ (k = 2)
    a = fn(np.array([1.0, 0.0]).reshape(2, 1))
    b = fn(np.array([0.0, 1.0]).reshape(2, 1))
    assert not np.allclose(a, b)


def test_angular_scalar_variant(small_grid):
    pot = quadratic([0.0])
    vals = angular(pot, 0.5, windings=1)(small_grid.coords)
    assert vals.shape[0] == 1
    assert np.abs(vals).max() <= 0.5 + 1e-12
    assert vals.min() < -0.4  # signed amplitude varies with the angle


@pytest.mark.parametrize("n, h, r_max", [(2, 0.2, 3.0), (3, 0.25, 2.0)])
def test_radial_profile_data_are_constant(n, h, r_max):
    # the data are zero + magnitude * d on every node of the cube, the
    # ring beyond r_max included, and the initial iterate ramps them to
    # the zero as it does every tag's
    pot = power([0.1, -0.2], 4)
    grid = Grid(n, h, r_max)
    direction = [1.0, 2.0]
    fn = make_boundary("radial-profile", pot,
                       {"magnitude": 0.45, "direction": direction})
    g = fn(grid.coords)
    d = np.asarray(direction) / np.linalg.norm(direction)
    expected = (pot.zero + 0.45 * d).reshape((2,) + (1,) * n)
    assert np.array_equal(g, np.broadcast_to(expected, g.shape))
    lam = np.clip(grid.radius - (grid.r_max - 1.0), 0.0, 1.0)
    a = pot.zero.reshape((2,) + (1,) * n)
    assert np.array_equal(initial_field(grid, pot, fn).values,
                          a + lam * (g - a))
    # without a direction, d is the first axis
    g1 = make_boundary("radial-profile", pot, {"magnitude": 0.45})(
        grid.coords)
    assert np.array_equal(g1[0], np.full(grid.shape, 0.1 + 0.45))
    assert np.array_equal(g1[1], np.full(grid.shape, -0.2 + 0.0))


def test_random_smooth_bounded_and_seeded(small_grid):
    pot = quadratic([0.0, 0.0])
    fn1 = random_smooth(pot, 0.25, seed=4)
    fn2 = random_smooth(pot, 0.25, seed=4)
    fn3 = random_smooth(pot, 0.25, seed=5)
    v1 = fn1(small_grid.coords)
    assert np.array_equal(v1, fn2(small_grid.coords))
    assert not np.array_equal(v1, fn3(small_grid.coords))
    rho = np.sqrt(np.sum(v1 ** 2, axis=0))
    assert rho.max() <= 0.25 + 1e-12


def test_make_boundary_tags(small_grid):
    pot = quadratic([0.0, 0.0])
    for tag in ("constant", "angular", "radial-profile", "random"):
        fn = make_boundary(tag, pot, {"magnitude": 0.3, "seed": 1})
        vals = fn(small_grid.coords)
        assert vals.shape == (2,) + small_grid.shape
    for tag in ("nope", "constant-a", "random-seeded"):
        with pytest.raises(ValueError):
            make_boundary(tag, pot, {})


def test_initial_field_pins_boundary(small_grid):
    pot = quadratic([0.0, 0.0])
    fn = angular(pot, 0.5)
    u0 = initial_field(small_grid, pot, fn)
    ref = VectorField.from_function(small_grid, fn, m=2)
    sel = small_grid.mask == BOUNDARY
    assert np.array_equal(u0.values[:, sel], ref.values[:, sel])
    bulk = small_grid.radius < small_grid.r_max - 1.5
    assert np.abs(u0.values[:, bulk]).max() < 1e-12
