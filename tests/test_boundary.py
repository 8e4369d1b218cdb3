"""Boundary data generators and the initial iterate."""

import numpy as np
import pytest

from vacmin.boundary import (angular, constant, initial_field, layer_profile,
                             make_boundary, radial_profile, random_smooth)
from vacmin.field import BOUNDARY, Grid, VectorField
from vacmin.potentials import power, quadratic


def test_constant_generator(small_grid):
    pot = quadratic([0.3, -0.2])
    g = constant(pot)(small_grid.coords)
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


def test_layer_profile_minimizes_1d_energy():
    pot = power([0.0], 4)
    s, P = layer_profile(pot, np.array([1.0]), 0.5, 6.0)
    assert P[0] == pytest.approx(0.5)
    assert abs(P[-1]) < 1e-9
    assert P.max() <= 0.5 + 1e-9
    # interior stationarity of the 1-d functional
    h1 = s[1] - s[0]
    lap = (P[2:] - 2 * P[1:-1] + P[:-2]) / h1 ** 2
    gw = pot.grad_field(P[None, 1:-1])[0]
    assert np.abs(lap - gw).max() < 1e-6


def test_radial_profile_wraps_layer():
    pot = quadratic([0.0, 0.0])
    grid = Grid(2, 0.1, 3.0)
    fn = radial_profile(pot, grid, 0.4)
    u = VectorField.from_function(grid, fn, m=2)
    d = u.distance_from(pot.zero).values
    assert d[grid.mask == BOUNDARY].max() == pytest.approx(0.4, abs=1e-9)
    # exponential-type decay toward the center (depth ~ 2.5 here)
    assert d[grid.radius < 0.5].max() < 0.4 * np.exp(-2.0)


@pytest.mark.parametrize("n, h, r_max", [(2, 0.2, 3.0), (3, 0.25, 2.0)])
def test_radial_profile_data_are_constant(n, h, r_max):
    # every boundary node lies beyond r_max, where the profile reads its
    # depth-0 value: the Dirichlet data are zero + magnitude * d exactly
    pot = power([0.1, -0.2], 4)
    grid = Grid(n, h, r_max)
    direction = [1.0, 2.0]
    fn = radial_profile(pot, grid, 0.45, direction=direction)
    ring = fn(grid.coords)[:, grid.mask == BOUNDARY]
    d = np.asarray(direction) / np.linalg.norm(direction)
    expected = pot.zero + 0.45 * d
    assert ring.shape[1] > 0
    assert np.array_equal(ring, np.repeat(expected[:, None], ring.shape[1],
                                          axis=1))


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
        fn = make_boundary(tag, pot, small_grid,
                           {"magnitude": 0.3, "seed": 1})
        vals = fn(small_grid.coords)
        assert vals.shape == (2,) + small_grid.shape
    for tag in ("nope", "constant-a", "random-seeded"):
        with pytest.raises(ValueError):
            make_boundary(tag, pot, small_grid, {})


def test_initial_field_pins_boundary(small_grid):
    pot = quadratic([0.0, 0.0])
    fn = angular(pot, 0.5)
    u0 = initial_field(small_grid, pot, fn)
    ref = VectorField.from_function(small_grid, fn, m=2)
    sel = small_grid.mask == BOUNDARY
    assert np.array_equal(u0.values[:, sel], ref.values[:, sel])
    bulk = small_grid.radius < small_grid.r_max - 1.5
    assert np.abs(u0.values[:, bulk]).max() < 1e-12
