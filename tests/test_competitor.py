"""Competitor constructions and the comparisons minimality forces."""

import numpy as np
import pytest

from vacmin.boundary import angular, initial_field, random_smooth
from vacmin._kernels import InteriorOperator
from vacmin.competitor import (build_min_truncation, build_shell,
                               build_truncation, compare, interior_and_ring,
                               max_principle_check, modulus_gradient_ratio,
                               quadrature_slack, select_truncation_level,
                               standard_suite, taper)
from vacmin.field import EXTERIOR, Grid, VectorField, take
from vacmin.growth import annulus_field
from vacmin.minimizer import discrete_energy, minimize
from vacmin.potentials import anisotropic, power, quadratic


# ---------------------------------------------------------------------------
# taper and truncation


def test_taper_values():
    r = 0.4
    assert taper(r, r) == 1.0
    assert taper(2 * r, r) == 0.0
    assert taper(1.5 * r, r) == pytest.approx(0.5)
    assert taper(0.0, r) == 1.0
    assert taper(5 * r, r) == 0.0
    t = np.linspace(0, 3 * r, 100)
    out = taper(t, r)
    # 1-Lipschitz with constant 1/r
    assert np.abs(np.diff(out)).max() <= (t[1] - t[0]) / r + 1e-12


def test_truncation_identity_regime(small_grid):
    zero = np.array([0.1, -0.2])
    u = VectorField.constant(small_grid, zero + 0.2)
    r = 0.5
    assert np.linalg.norm(u.values[:, 0, 0] - zero) <= r
    t = build_truncation(u.values, zero, r)
    assert np.array_equal(t, u.values)


def test_truncation_far_regime_maps_to_zero(small_grid):
    zero = np.array([0.0, 0.0])
    r = 0.2
    u = VectorField.constant(small_grid, [3 * r, 0.0])  # rho = 3r >= 2r
    t = build_truncation(u.values, zero, r)
    assert np.abs(t - zero[:, None, None]).max() == 0.0


def test_truncation_taper_regime(small_grid):
    # rho = 1.5 r: min(rho, r) = r, taper = 0.5, so |t - zero| = r/2
    zero = np.array([0.0, 0.0])
    r = 0.4
    nu = np.array([0.6, 0.8])
    u = VectorField.constant(small_grid, 1.5 * r * nu)
    t = build_truncation(u.values, zero, r)
    d = np.sqrt(np.sum(t ** 2, axis=0))
    assert np.abs(d - 0.5 * r).max() < 1e-12
    direction = t[:, 0, 0] / d[0, 0]
    assert direction == pytest.approx(nu)


def test_truncation_idempotent(small_grid, rng):
    zero = np.zeros(2)
    u = VectorField(small_grid, rng.uniform(-1, 1, (2,) + small_grid.shape))
    r = 0.3
    t1 = build_truncation(u.values, zero, r)
    t2 = build_truncation(t1, zero, r)
    assert np.array_equal(t1, t2)
    assert np.sqrt(np.sum(t1 ** 2, axis=0)).max() <= r + 1e-15


def test_truncation_hypothesis_check():
    # the cap must be positive; r < r0/2 is max_principle_check's to test
    g = Grid(2, 0.1, 1.0)
    u = VectorField.constant(g, [0.0])
    for r in (0.0, -0.2):
        with pytest.raises(ValueError):
            build_truncation(u.values, [0.0], r)


def test_truncation_never_increases_potential_term(small_grid, rng):
    # pointwise W comparison under nondecreasing radial sections
    pot = power([0.0, 0.0], 4)
    u = VectorField(small_grid, rng.uniform(-0.4, 0.4, (2,) + small_grid.shape))
    t = build_truncation(u.values, pot.zero, 0.2)
    w_u = pot.value_field(u.values)
    w_t = pot.value_field(t)
    assert (w_t <= w_u + 1e-15).all()


def test_modulus_gradient_ratio_reads_the_energy_edges(small_grid, rng):
    # the ratio runs over the edges of the discrete energy: twice the
    # modulus reads 2, a truncation at most 1, and a change confined to
    # nodes no such edge reaches reads nothing
    pot = power([0.0, 0.0], 4)
    vals = rng.standard_normal((2,) + small_grid.shape)
    op = InteriorOperator(small_grid, vals, pot)
    nodes = interior_and_ring(small_grid)
    u = take(vals, nodes)

    def ratio(v):
        return modulus_gradient_ratio(op, u, take(v, nodes), pot.zero)

    assert ratio(2.0 * vals) == pytest.approx(2.0, rel=1e-14)
    assert ratio(build_truncation(vals, pot.zero, 0.5)) <= 1.0 + 1e-12
    far = vals.copy()
    far[:, small_grid.mask == EXTERIOR] *= 10.0
    assert ratio(far) == 1.0


def test_shell_construction(small_grid, rng):
    zero = np.array([0.2, -0.1])
    vals = zero[:, None, None] + rng.uniform(-1, 1, (2,) + small_grid.shape)
    vals[:, 5, 5] = zero  # a node exactly at the zero
    u = VectorField(small_grid, vals)
    r = 0.3
    v = build_shell(u.values, zero, r)
    d = v - zero[:, None, None]
    rho = np.sqrt(np.sum(d * d, axis=0))
    assert np.abs(rho - r).max() < 1e-12
    # direction preserved where defined, first-axis fallback at the zero
    du = u.values - zero[:, None, None]
    rho_u = np.sqrt(np.sum(du * du, axis=0))
    sel = rho_u > 1e-9
    cross = du[0] * d[1] - du[1] * d[0]
    assert np.abs(cross[sel]).max() < 1e-12
    assert v[0, 5, 5] == pytest.approx(zero[0] + r)


# ---------------------------------------------------------------------------
# min-truncation and level selection


def test_min_truncation_basics(small_grid):
    u = VectorField.from_function(small_grid, lambda x: x[0], m=1)
    v = build_min_truncation(u.values, 0.5)
    assert (v <= 0.5 + 1e-15).all()
    assert np.array_equal(v[u.values <= 0.5], u.values[u.values <= 0.5])
    below = VectorField.constant(small_grid, [0.2]).values
    assert np.array_equal(build_min_truncation(below, 0.5), below)
    with pytest.raises(ValueError):
        build_min_truncation(np.zeros((2,) + small_grid.shape), 0.5)


def test_select_truncation_level(small_grid):
    u = VectorField.from_function(small_grid, lambda x: x[0], m=1)  # max ~ 2
    # quadratic W increases on [d, max u]: the left endpoint wins
    pot = quadratic([0.0])
    assert select_truncation_level(u.values, 0.0, 0.5,
                                   pot) == pytest.approx(0.5)
    # potential with an interior dip: dense-scan oracle finds the dip
    dip = anisotropic([1.2], [1.0], [2])  # W = (u - 1.2)^2, dip at 1.2
    lvl = select_truncation_level(u.values, 0.0, 0.5, dip)
    scan = np.linspace(0.5, float(u.values.max()), 10_000)
    oracle = scan[int(np.argmin((scan - 1.2) ** 2))]
    assert lvl == pytest.approx(oracle)
    with pytest.raises(ValueError):
        select_truncation_level(np.full((1,) + small_grid.shape, 0.1),
                                0.0, 0.5, pot)


def test_min_truncation_lowers_energy_with_dip_potential():
    # constructed non-minimal field with an interior peak, potential whose
    # minimum over [level, max] sits at the level: cutting strictly helps
    g = Grid(2, 0.1, 2.0)
    pot = anisotropic([0.0], [1.0], [2])  # W = u^2

    def peak(x):
        r2 = x[0] ** 2 + x[1] ** 2
        return 2.0 * np.exp(-3 * r2)

    u = VectorField.from_function(g, peak, m=1)
    level = select_truncation_level(u.values, 0.0, 0.5, pot)
    v = u.with_values(build_min_truncation(u.values, level))
    assert discrete_energy(v, pot) < discrete_energy(u, pot)


# ---------------------------------------------------------------------------
# comparisons on converged minimizers


def test_competitors_never_beat_minimizers(standard_runs):
    for run in standard_runs:
        dq = quadrature_slack(run.grid)
        reports = standard_suite(run.u, run.pot, run.magnitude)
        tags = {r.tag for r in reports}
        assert {"annulus", "truncation", "constant-r-shell"} <= tags
        if run.u.m == 1:
            assert "min-truncation" in tags
        for rep in reports:
            if not rep.admissible:
                assert rep.tag == "constant-r-shell" and run.u.m == 1
                continue
            assert rep.difference >= -dq, (run.label, rep.tag, rep.difference)


def test_suite_evaluates_energy_u_once(standard_runs, monkeypatch):
    # one operator, one discrete energy for u plus one per competitor, for
    # m = 1 and 2
    real_init, real_energy = InteriorOperator.__init__, InteriorOperator.energy
    built, calls = [], []

    def counting_init(self, *args):
        built.append(1)
        real_init(self, *args)

    def counting(self, x):
        calls.append(1)
        return real_energy(self, x)

    monkeypatch.setattr(InteriorOperator, "__init__", counting_init)
    monkeypatch.setattr(InteriorOperator, "energy", counting)
    for run in (standard_runs[0], standard_runs[4]):
        built.clear()
        calls.clear()
        reports = standard_suite(run.u, run.pot, run.magnitude)
        assert len(reports) == (4 if run.u.m == 1 else 3)
        assert len(built) == 1
        assert len(calls) == len(reports) + 1
        eu = discrete_energy(run.u, run.pot)
        assert all(r.energy_u == eu for r in reports)


def test_annulus_competitor_agrees_on_boundary(standard_runs):
    run = standard_runs[0]
    s_r = run.grid.r_max - 2 * run.grid.h
    nodes = interior_and_ring(run.grid)
    v = annulus_field(run.u, run.pot, s_r, nodes)
    op = InteriorOperator(run.grid, run.u.values, run.pot)
    rep = compare(op, take(run.u.values, nodes),
                  discrete_energy(run.u, run.pot), v, "annulus")
    assert rep.boundary_deviation == 0.0
    assert rep.admissible


def test_annulus_interpolation_bound(standard_runs):
    # sup over the ramp annulus of |v - zero| <= 2 * sup over the sphere
    # trace of |u - zero| (discrete analog of the linear interpolation bound)
    run = standard_runs[1]
    g = run.grid
    s_r = g.r_max - 2 * g.h
    v = annulus_field(run.u, run.pot, s_r,
                      np.arange(g.mask.size).reshape(g.shape))
    from vacmin.field import interpolate, sphere_points
    pts = sphere_points(2, s_r, 1024)
    trace = interpolate(g, run.u.values, pts)
    m_trace = np.sqrt(((trace - run.pot.zero[:, None]) ** 2).sum(axis=0)).max()
    ann = (g.radius >= s_r - 1.0) & (g.radius <= s_r)
    dv = np.sqrt(np.sum((v - run.pot.zero[:, None, None]) ** 2, axis=0))
    assert dv[ann].max() <= 2 * m_trace + 1e-9


def test_truncation_radius_from_excursion_bound(standard_runs):
    # eps-excursion bound from the potential: minimizer samples with small
    # density must lie within m_eps of the zero. W >= lower_coef |u|^exponent
    # holds with equality for the quadratic and power families, so the
    # sublevel set {W <= eps} is exactly the ball of radius m_eps.
    run = standard_runs[0]
    from vacmin.field import energy_density
    e = energy_density(run.u, run.pot)
    eps = 0.05
    m_eps = (eps / run.pot.lower_coef) ** (1.0 / run.pot.exponent)
    sel = (e.values <= eps) & (run.grid.mask == 1)
    d = run.u.distance_from(run.pot.zero).values
    assert d[sel].max() <= m_eps + 1e-6


# ---------------------------------------------------------------------------
# maximum principle


def test_max_principle_constant_boundary():
    g = Grid(2, 0.1, 2.0)
    pot = power([0.0, 0.0], 4, monot_radius=1.0)
    u, solve = minimize(VectorField.constant(g, [0.0, 0.0]), pot)
    rep = max_principle_check(u, pot, 0.25, solve)
    assert rep.holds
    assert rep.interior_sup == 0.0
    assert rep.positivity_redundancy_ok


def test_max_principle_quadratic_cross_checked_with_linear_solve():
    # quadratic potential: the minimizer solves the linear system
    # lap u = u, so a direct sparse solve is an independent oracle
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    g = Grid(2, 0.1, 2.0)
    pot = quadratic([0.0], monot_radius=1.0)
    r = 0.25
    fn = random_smooth(pot, r, seed=11)
    u0 = initial_field(g, pot, fn)
    u_solver, solve = minimize(u0, pot, tol=1e-8, max_iter=60_000)
    rep = max_principle_check(u_solver, pot, r, solve)
    assert rep.solver_converged
    assert rep.interior_sup <= r + 2 * g.h
    assert rep.truncation_difference <= quadrature_slack(g)

    interior = np.flatnonzero(g.mask.ravel() == 1)
    index = -np.ones(g.mask.size, dtype=int)
    index[interior] = np.arange(interior.size)
    h2 = g.h ** 2
    rows, cols, data = [], [], []
    rhs = np.zeros(interior.size)
    gvals = u0.values[0].ravel()
    ny = g.shape[1]
    for row, flat in enumerate(interior):
        rows.append(row)
        cols.append(row)
        data.append(4.0 / h2 + 1.0)
        for nb in (flat - 1, flat + 1, flat - ny, flat + ny):
            if index[nb] >= 0:
                rows.append(row)
                cols.append(index[nb])
                data.append(-1.0 / h2)
            else:
                rhs[row] += gvals[nb] / h2
    A = sp.csr_matrix((data, (rows, cols)), shape=(interior.size,) * 2)
    direct = spla.spsolve(A, rhs)

    mine = u_solver.values[0].ravel()[interior]
    assert np.abs(mine - direct).max() < 1e-6
    assert np.abs(direct).max() <= r + 1e-9  # linear maximum principle


def test_max_principle_power4_vector():
    g = Grid(2, 0.1, 2.0)
    pot = power([0.0, 0.0], 4, monot_radius=1.0)
    r = 0.25
    fn = angular(pot, r, windings=2)
    u0 = initial_field(g, pot, fn)
    u, solve = minimize(u0, pot, tol=1e-7)
    rep = max_principle_check(u, pot, r, solve)
    assert rep.holds
    assert rep.interior_sup <= r + 2 * g.h
    assert rep.truncation_difference <= quadrature_slack(g)


def test_max_principle_preconditions():
    g = Grid(2, 0.1, 2.0)
    pot = power([0.0, 0.0], 4, monot_radius=1.0)
    u, solve = minimize(VectorField.constant(g, [0.0, 0.0]), pot)
    with pytest.raises(ValueError, match=r"r0/2"):
        max_principle_check(u, pot, 0.6, solve)
    big, solve = minimize(initial_field(g, pot, angular(pot, 0.5)), pot)
    with pytest.raises(ValueError, match="boundary data exceeds r"):
        max_principle_check(big, pot, 0.25, solve)
