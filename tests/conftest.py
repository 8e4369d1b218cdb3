"""Shared fixtures: small grids and the standard experiment set.

The standard set (n=2, m in {1,2}, quadratic and quartic potentials,
angular boundary data, r_max in {4, 8}) is solved once per session and
reused by the competitor, covering, monotonicity and acceptance tests.
"""

import os

import numpy as np
import pytest

import vacmin
from vacmin.boundary import angular, initial_field
from vacmin.field import Grid, VectorField, sample_sphere, sphere_area
from vacmin.minimizer import minimize
from vacmin.monotonicity import StressTensorField
from vacmin.potentials import power, quadratic

STANDARD_H = 0.1
STANDARD_TOL = 1e-6
STANDARD_MAG = 0.6


class StandardRun:
    def __init__(self, label, grid, pot, magnitude, u, report):
        self.label = label
        self.grid = grid
        self.pot = pot
        self.magnitude = magnitude
        self.u = u
        self.report = report


def _solve_standard(m, family, r_max):
    zero = [0.0] * m
    pot = quadratic(zero) if family == "quadratic" else power(zero, 4)
    grid = Grid(2, STANDARD_H, r_max)
    fn = angular(pot, STANDARD_MAG, windings=1)
    u0 = initial_field(grid, pot, fn)
    u, rep = minimize(u0, pot, tol=STANDARD_TOL, max_iter=100_000)
    label = f"m{m}-{family}-R{r_max:g}"
    assert rep.converged, f"standard run {label} did not converge"
    return StandardRun(label, grid, pot, STANDARD_MAG, u, rep)


@pytest.fixture(scope="session")
def standard_runs():
    runs = []
    for m in (1, 2):
        for family in ("quadratic", "power4"):
            for r_max in (4.0, 8.0):
                runs.append(_solve_standard(m, family, r_max))
    return runs


@pytest.fixture(scope="session")
def small_grid():
    return Grid(2, 0.1, 2.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_interior_field(grid, m, seed, scale=0.3):
    """Seeded field: smooth-ish random values on the interior, zero outside."""
    r = np.random.default_rng(seed)
    vals = scale * r.standard_normal((m,) + grid.shape)
    vals[:, grid.mask != 1] = 0.0
    return VectorField(grid, vals)


def sphere_integral(s, R, K):
    """Slice integral of the scalar field s over |x| = R from K interpolated
    samples: the brute-force oracle for the good-radius scan."""
    _, vals = sample_sphere(s, R, K)
    return float(vals.mean() * sphere_area(s.grid.n, R))


def stress_divergence(T: StressTensorField) -> VectorField:
    """Row-wise divergence (div T)_i = sum_j d_j T_ij, centered differences:
    the oracle for the Noether identity div T = 0 on solutions."""
    g = T.grid
    out = np.zeros((g.n,) + g.shape)
    for i in range(g.n):
        for j in range(g.n):
            out[i] += np.gradient(T.values[i, j], g.h, axis=j)
    return VectorField(g, out)


def interior_sup(f: VectorField, margin: float = 0.0) -> float:
    """Sup of |f| (Euclidean over components) on interior nodes with
    |x| <= r_max - margin."""
    g = f.grid
    sel = (g.mask == 1) & (g.radius <= g.r_max - margin)
    mag = np.sqrt(np.sum(f.values ** 2, axis=0))
    return float(mag[sel].max())


def vacmin_env(**env):
    """This process's environment for a subprocess that imports the vacmin
    under test: its ``src`` first on PYTHONPATH, then ``env`` applied (a
    None value unsets its name)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(vacmin.__file__)))
    full = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    for name, value in env.items():
        full.pop(name, None)
        if value is not None:
            full[name] = value
    return full
