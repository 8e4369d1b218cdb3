"""Energy profiles, the annulus comparison bound, and bootstrap arithmetic."""

import math

import numpy as np
import pytest

from vacmin.field import (Grid, ScalarField, VectorField, energy_density,
                          integrate_ball, interpolate)
from vacmin.growth import (EnergyProfile, annulus_field, bootstrap_fixed_point,
                           bootstrap_map, comparison_bound, energy_profile,
                           growth_diagnostic)
from vacmin.potentials import quadratic


# ---------------------------------------------------------------------------
# bootstrap arithmetic


def test_bootstrap_map_values():
    assert bootstrap_map(1.0, 2, 2.0) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert bootstrap_map(0.5, 2, 2.0) == pytest.approx(0.5, abs=1e-15)


def test_bootstrap_map_sign_property():
    # gamma(k) - k = (1 - c)(k* - k) with c = 2/(qn+2), so it shares the
    # sign of (n - 1 - 2/(qn)) - k
    for n in (2, 3):
        for q in (2.0, 3.0, 4.0):
            star = n - 1 - 2.0 / (q * n)
            c = 2.0 / (q * n + 2.0)
            for k in np.linspace(0.05, n - 1, 23):
                lhs = bootstrap_map(float(k), n, q) - k
                rhs = star - k
                assert lhs == pytest.approx((1 - c) * rhs, abs=1e-12)
                assert np.sign(np.round(lhs, 12)) == np.sign(np.round(rhs, 12))


def test_bootstrap_map_domain():
    with pytest.raises(ValueError):
        bootstrap_map(0.0, 2, 2.0)
    with pytest.raises(ValueError):
        bootstrap_map(1.5, 2, 2.0)
    with pytest.raises(ValueError):
        bootstrap_map(1.0, 2, 1.5)


def test_bootstrap_fixed_points():
    k, iters = bootstrap_fixed_point(2, 2.0, tol=1e-14)
    assert abs(k - 0.5) < 1e-12
    k3, _ = bootstrap_fixed_point(3, 2.0, tol=1e-14)
    assert abs(k3 - 5.0 / 3.0) < 1e-12
    # iteration bound from the contraction factor 2/(qn+2)
    c = 2.0 / (2.0 * 2 + 2.0)
    assert iters <= math.ceil(math.log(1e-14) / math.log(c)) + 1


def test_contraction_factor_bound():
    for n in (2, 3):
        for q in (2.0, 4.0, 8.0):
            assert 2.0 / (q * n + 2.0) <= 1.0 / 3.0


def test_gamma_affine():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n, q = 2, 3.0
        k1, k2 = rng.uniform(0.1, n - 1, 2)
        lam = rng.uniform(0, 1)
        lhs = bootstrap_map(lam * k1 + (1 - lam) * k2, n, q)
        rhs = lam * bootstrap_map(k1, n, q) + (1 - lam) * bootstrap_map(k2, n, q)
        assert abs(lhs - rhs) < 1e-12


# ---------------------------------------------------------------------------
# profiles


def test_profile_constant_zero(small_grid):
    pot = quadratic([0.0])
    u = VectorField.constant(small_grid, [0.0])
    prof = energy_profile(u, pot, [0.5, 1.0, 1.5])
    assert prof.energies == [0.0, 0.0, 0.0]


def test_profile_monotone_and_interface_scaling():
    # 1-d ramp through the disc: E(R) grows like the chord length ~ 2R
    pot = quadratic([0.0])
    g = Grid(2, 0.05, 4.0)
    u = VectorField.from_function(g, lambda x: np.tanh(3 * x[0]), m=1)
    radii = [1.0, 2.0, 3.0, 4.0]
    prof = energy_profile(u, pot, radii)
    e = prof.energies
    assert all(b >= a for a, b in zip(e, e[1:]))
    # interface energy dominated by the strip |x1| < 1: beyond it the ramp
    # contributes W(+-1)-ish bulk, so compare growth against chord scaling
    ratio21 = e[1] / e[0]
    assert 1.5 < ratio21 < 3.0


def test_profile_constant_beyond_support():
    pot = quadratic([0.0])
    g = Grid(2, 0.1, 3.0)

    def blob(x):
        r2 = x[0] ** 2 + x[1] ** 2
        return np.exp(-20 * r2)

    u = VectorField.from_function(g, blob, m=1)
    prof = energy_profile(u, pot, [1.5, 2.0, 2.5])
    assert prof.energies[2] == pytest.approx(prof.energies[0], rel=1e-6)


def test_profile_validation():
    with pytest.raises(ValueError):
        EnergyProfile([1.0, 1.0], [0.0, 0.0])


# ---------------------------------------------------------------------------
# comparison bound


def test_comparison_bound_zero_field(small_grid):
    pot = quadratic([0.0, 0.0])
    u = VectorField.constant(small_grid, [0.0, 0.0])
    assert comparison_bound(u, pot, 1.5) == pytest.approx(0.0, abs=1e-12)


def test_comparison_bound_perimeter_scaling():
    # field with |u| <= M and |grad u| <= G: the ramp competitor's density is
    # at most (M^2 + 9 G^2)/2 + max W over the annulus of area < 2 pi R, so
    # the bound stays under an explicit c(M, G) * R across doublings
    pot = quadratic([0.0])
    g = Grid(2, 0.05, 8.0)
    M = 0.8
    u = VectorField.from_function(
        g, lambda x: M * np.cos(x[0] + 0.3 * x[1]), m=1)
    G = M * np.sqrt(1.0 + 0.09)
    c = (0.5 * (M ** 2 + 9 * G ** 2) + pot.value([M])) * 2 * np.pi
    for R in (2.0, 4.0, 8.0):
        assert comparison_bound(u, pot, R) <= c * R


def cube_nodes(g):
    """The flat indices of every cube node, in the cube's shape."""
    return np.arange(g.mask.size).reshape(g.shape)


def test_annulus_field_structure(small_grid):
    pot = quadratic([0.3, -0.1])
    rng = np.random.default_rng(1)
    vals = 0.5 * rng.standard_normal((2,) + small_grid.shape)
    u = VectorField(small_grid, vals + pot.zero[:, None, None])
    R = 1.6
    v = annulus_field(u, pot, R, cube_nodes(small_grid))
    rad = small_grid.radius
    inner = rad <= R - 1.0 - 1e-9
    outer = rad > R + 1e-9
    d = np.sqrt(np.sum((v - pot.zero[:, None, None]) ** 2, axis=0))
    assert d[inner].max() < 1e-12
    assert np.array_equal(v[:, outer], u.values[:, outer])


def full_cube_annulus_field(u, pot, R):
    """The annulus comparison field built by interpolating u's trace at
    every cube node: the reference the shell-only ``annulus_field`` must
    match bit for bit."""
    g = u.grid
    a = pot.zero.reshape((-1,) + (1,) * g.n)
    rad = g.radius
    with np.errstate(invalid="ignore", divide="ignore"):
        unit = np.where(rad > 1e-12, g.coords / rad, 0.0)
    pts = np.moveaxis(unit * R, 0, -1).reshape(-1, g.n)
    trace = interpolate(g, u.values, pts).reshape((u.m,) + g.shape)
    lam = np.clip(rad - (R - 1.0), 0.0, 1.0)
    vals = a + lam * (trace - a)
    outside = rad > R
    vals[:, outside] = u.values[:, outside]
    return vals


@pytest.mark.parametrize("n,h,r_max", [(2, 0.1, 3.0), (3, 0.25, 2.5)])
def test_annulus_field_matches_full_cube_oracle(n, h, r_max):
    g = Grid(n, h, r_max)
    pot = quadratic([0.3, -0.1])
    rng = np.random.default_rng(n)
    u = VectorField(g, rng.standard_normal((2,) + g.shape))
    # the smallest radius, the competitor suite's r_max - 2h, and r_max
    for R in (1.0 + h, r_max - 2 * h, r_max):
        v = annulus_field(u, pot, R, cube_nodes(g))
        assert np.array_equal(v, full_cube_annulus_field(u, pot, R))


def test_converged_minimizer_beats_comparison_bound(standard_runs):
    # discrete minimality at every sampled radius, not just the full ball
    for run in standard_runs:
        e = energy_density(run.u, run.pot)
        dq = 1e-8 + 1e-3 * run.grid.h ** 2 * run.grid.ball_volume()
        for frac in (0.5, 0.75, 1.0):
            R = run.grid.r_max * frac
            ball = integrate_ball(e, R)
            bound = comparison_bound(run.u, run.pot, R)
            assert ball <= bound + dq, (run.label, R)


# ---------------------------------------------------------------------------
# diagnostics


def test_rescaled_l2_values(small_grid):
    from vacmin.growth import rescaled_l2_smallness
    pot = quadratic([0.0])
    u = VectorField.constant(small_grid, [0.0])
    assert rescaled_l2_smallness(u, pot, [1.0]) == [0.0]
    # constant offset c: (1/R) * |c|^2 * area(B_2R) = 4 pi |c|^2 R for n=2
    c = 0.3
    uc = VectorField.constant(small_grid, [c])
    R = 0.8
    val, = rescaled_l2_smallness(uc, pot, [R])
    assert val == pytest.approx(4 * np.pi * c ** 2 * R, rel=2e-2)


def per_radius_l2(u, pot, R):
    """The rescaled L2 value at one radius, with |u - zero|^2 formed for it
    alone: the reference the list form must match bit for bit."""
    g = u.grid
    dist2 = ScalarField(g, u.distance_from(pot.zero).values ** 2)
    return (1.0 / R) ** (g.n - 1) * integrate_ball(dist2, min(2.0 * R,
                                                              g.r_max))


@pytest.mark.parametrize("n,h,r_max", [(2, 0.1, 2.0), (3, 0.25, 2.5)])
def test_rescaled_l2_list_matches_per_radius_values(n, h, r_max):
    from vacmin.growth import rescaled_l2_smallness
    g = Grid(n, h, r_max)
    pot = quadratic([0.3, -0.1])
    rng = np.random.default_rng(n)
    u = VectorField(g, rng.standard_normal((2,) + g.shape))
    # energy-profile's default radii r_max k / 8, the last four clipped,
    # a repeat, and R below 2h
    radii = [r_max * k / 8 for k in range(1, 9)] + [0.5 * r_max, 0.7 * h]
    got = rescaled_l2_smallness(u, pot, radii)
    want = [per_radius_l2(u, pot, R) for R in radii]
    assert [x.hex() for x in got] == [x.hex() for x in want]


def test_rescaled_l2_clips_its_ball_to_r_max(small_grid):
    # the ball B_{2R} is clipped to B_{r_max}, as for the last 4 of
    # energy-profile's default radii r_max * k / 8
    from vacmin.growth import rescaled_l2_smallness
    g = small_grid
    pot = quadratic([0.0])
    c = 0.3
    uc = VectorField.constant(g, [c])
    R = 0.75 * g.r_max
    dist2 = ScalarField(g, uc.distance_from(pot.zero).values ** 2)
    val, = rescaled_l2_smallness(uc, pot, [R])
    assert val == (1.0 / R) * integrate_ball(dist2, g.r_max)
    # |c|^2 pi r_max^2 / R, not the 4 pi |c|^2 R of the unclipped B_{2R}
    assert val == pytest.approx(math.pi * c ** 2 * g.r_max ** 2 / R,
                                rel=2e-2)


def test_growth_diagnostic_zero():
    rep = growth_diagnostic([1, 2, 4], [0.0, 0.0, 0.0], 2, 2.0)
    assert rep.violations == []
    assert rep.fitted_exponent is None
    assert rep.reference_exponent == pytest.approx(0.5)


def test_growth_diagnostic_trends():
    radii = [2.0, 4.0, 8.0]
    energies = [3.0, 5.8, 11.0]  # slightly sublinear growth
    rep = growth_diagnostic(radii, energies, 2, 2.0)
    assert rep.violations == []
    assert 0.8 < rep.fitted_exponent < 1.0
    bad = growth_diagnostic(radii, [1.0, 2.5, 6.0], 2, 2.0)
    assert bad.violations != []
    with pytest.raises(ValueError):
        growth_diagnostic([1.0, 2.0], [1.0, 1.0], 2, 2.0)
