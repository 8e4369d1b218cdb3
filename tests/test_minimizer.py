"""Discrete energy, its gradient oracle, and the descent solver."""

import warnings

import numpy as np
import pytest

from conftest import random_interior_field
from vacmin.boundary import angular, initial_field
from vacmin.field import Grid, VectorField, INTERIOR
from vacmin import _kernels
from vacmin._kernels import InteriorOperator
from vacmin.minimizer import (SolverDivergence, _curvature_shift,
                              _residual_from_grad, discrete_energy,
                              discrete_energy_gradient, el_residual, minimize,
                              modica_check)
from vacmin.potentials import (anisotropic, power, product_perturbed,
                               quadratic)


def test_energy_of_constant_zero(small_grid):
    pot = quadratic([0.0, 0.0])
    u = VectorField.constant(small_grid, [0.0, 0.0])
    assert discrete_energy(u, pot) == 0.0


def test_energy_against_fine_quadrature_oracle():
    # 1-d tanh-like monotone ramp across the disc, quadratic potential;
    # the oracle is the same functional on a 4x refined grid
    pot = quadratic([0.0])

    def ramp(x):
        return np.tanh(2.0 * x[0])

    vals = {}
    for h in (0.1, 0.025):
        g = Grid(2, h, 2.0)
        vals[h] = discrete_energy(VectorField.from_function(g, ramp, m=1), pot)
    assert vals[0.1] == pytest.approx(vals[0.025], rel=1e-2)


def test_energy_richardson_order():
    pot = quadratic([0.0])

    # smooth field with density vanishing near the ball edge, so the
    # changing cut-cell set does not pollute the order measurement
    def blob(x):
        r2 = x[0] ** 2 + x[1] ** 2
        return np.exp(-3.0 * r2) * np.sin(2 * x[0])

    es = []
    hs = [0.2, 0.1, 0.05]
    for h in hs:
        g = Grid(2, h, 2.0)
        es.append(discrete_energy(VectorField.from_function(g, blob, m=1), pot))
    d1 = abs(es[1] - es[0])
    d2 = abs(es[2] - es[1])
    assert d2 < 0.35 * d1  # ~4x shrink per halving = second order


def test_gradient_zero_at_zero(small_grid):
    pot = power([0.0, 0.0], 4)
    u = VectorField.constant(small_grid, [0.0, 0.0])
    g = discrete_energy_gradient(u, pot)
    assert np.abs(g.values).max() == 0.0


def test_gradient_matches_directional_differences(small_grid):
    # 20 random (field, direction) pairs, central differences at t = 1e-5
    pot = power([0.0, 0.0], 4)
    base = angular(pot, 0.5)
    for trial in range(20):
        u = initial_field(small_grid, pot, base)
        u.values += random_interior_field(small_grid, 2, 100 + trial).values
        phi = random_interior_field(small_grid, 2, 200 + trial, scale=1.0)
        g = discrete_energy_gradient(u, pot)
        t = 1e-5
        ep = discrete_energy(u.with_values(u.values + t * phi.values), pot)
        em = discrete_energy(u.with_values(u.values - t * phi.values), pot)
        fd = (ep - em) / (2 * t)
        an = float(np.vdot(g.values, phi.values))
        assert abs(fd - an) / max(1e-12, abs(an)) < 1e-6


def test_gradient_vanishes_off_interior(small_grid, rng):
    pot = quadratic([0.0])
    u = VectorField(small_grid, rng.standard_normal((1,) + small_grid.shape))
    g = discrete_energy_gradient(u, pot)
    assert np.abs(g.values[:, small_grid.mask != INTERIOR]).max() == 0.0


def test_minimize_constant_boundary(small_grid):
    pot = power([0.0, 0.0], 4)
    u0 = VectorField.constant(small_grid, [0.0, 0.0])
    u, rep = minimize(u0, pot, tol=1e-8)
    assert rep.converged
    assert rep.iterations == 0
    assert rep.energy == 0.0


def test_minimize_cos_theta_boundary_beats_harmonic_extension():
    # m=1 quadratic with boundary cos(theta): the harmonic extension plus its
    # potential term is an explicit competitor the minimizer must beat
    g = Grid(2, 0.1, 2.0)
    pot = quadratic([0.0])
    R = g.r_max

    def gfun(x):
        th = np.arctan2(x[1], x[0])
        return np.cos(th)[None]

    u0 = initial_field(g, pot, gfun)
    u, rep = minimize(u0, pot, tol=1e-6, max_iter=40_000)
    assert rep.converged
    assert rep.residual <= 1e-6

    def harmonic(x):
        # r cos(theta) / R = x1 / R
        return (x[0] / R)[None]

    comp = VectorField.from_function(g, harmonic)
    # identical Dirichlet trace only matters on the boundary ring; compare
    # with the competitor's own values there to stay admissible
    comp.values[:, g.mask != INTERIOR] = u.values[:, g.mask != INTERIOR]
    assert discrete_energy(u, pot) <= discrete_energy(comp, pot) + 1e-6


def test_minimize_energy_monotone():
    g = Grid(2, 0.1, 2.0)
    pot = power([0.0, 0.0], 4)
    u0 = initial_field(g, pot, angular(pot, 0.7))
    u, rep = minimize(u0, pot, tol=1e-6)
    trace = rep.energy_trace
    assert all(b <= a + 1e-14 for a, b in zip(trace, trace[1:]))


def test_minimize_idempotent():
    g = Grid(2, 0.1, 2.0)
    pot = power([0.0, 0.0], 4)
    u0 = initial_field(g, pot, angular(pot, 0.7))
    u, rep = minimize(u0, pot, tol=1e-6)
    assert rep.converged
    u2, rep2 = minimize(u, pot, tol=1e-6)
    assert rep2.iterations <= 2
    assert np.array_equal(u2.values, u.values)


def test_minimize_boundary_untouched():
    g = Grid(2, 0.1, 2.0)
    pot = quadratic([0.0, 0.0])
    u0 = initial_field(g, pot, angular(pot, 0.5))
    u, _ = minimize(u0, pot, tol=1e-6)
    sel = g.mask != INTERIOR
    assert np.array_equal(u.values[:, sel], u0.values[:, sel])


def test_solver_divergence_error(small_grid):
    pot = quadratic([0.0])
    vals = np.full((1,) + small_grid.shape, 1e160)
    vals[:, small_grid.mask != INTERIOR] = 0.0
    u0 = VectorField(small_grid, vals)
    with pytest.raises(SolverDivergence):
        minimize(u0, pot, tol=1e-6, max_iter=10)


@pytest.mark.parametrize("nodes", ["all", "one"])
def test_overflowing_start_raises_divergence_without_warnings(small_grid,
                                                              nodes):
    # a field holds only finite values, but W overflows at 1e160: the
    # initial energy is checked before anything else reads u0, the
    # curvature shift included, so such a start is reported as divergence,
    # with no RuntimeWarning on the way
    pot = quadratic([0.0])
    vals = np.zeros((1,) + small_grid.shape)
    inner = np.flatnonzero(small_grid.mask.reshape(-1) == INTERIOR)
    vals.reshape(-1)[inner if nodes == "all" else inner[3]] = 1e160
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverDivergence, match="initial energy"):
            minimize(VectorField(small_grid, vals), pot, tol=1e-6)


SHIFT_POTS = [
    quadratic([0.1, -0.2]),
    power([0.0, 0.0], 4),
    power([0.0, 0.0], 3),
    power([0.0, 0.0], 6),
    anisotropic([0.0, 0.1], [1.0, 2.0], [2, 4]),
    product_perturbed([0.3, -0.2]),
]


@pytest.mark.parametrize("pot", SHIFT_POTS,
                         ids=lambda p: f"{p.family}-{p.exponent:g}")
def test_curvature_shift_is_the_weighted_hessian_trace(pot):
    # sigma = max(0, <phi, k phi>/<phi, phi>), k = tr D^2W(u0) / m from
    # second differences of W and phi the lowest mode of C's box: finite,
    # >= 0, the phi^2-weighted mean of the closed-form Hessian traces, 1 to
    # 1e-6 for the quadratic, and it leaves u0 as it was; minimize reports
    # the value it used
    g = Grid(2, 0.1, 2.0)
    u0 = initial_field(g, pot, angular(pot, 0.6))
    op = InteriorOperator(g, u0.values, pot)
    x = op.gather(u0.values)
    before = x.copy()
    shift = _curvature_shift(pot, g, x)
    assert np.array_equal(x, before)
    assert np.isfinite(shift) and shift >= 0.0
    # |u|^3 is only C^2 at its zero, where a second difference of step
    # eps = 2^-10 reads 2 eps for a Hessian trace of 0
    traces = np.array([np.trace(pot.hessian(p)) for p in x.T])
    weight = _kernels.lowest_mode(g) ** 2
    assert shift == pytest.approx(
        max(0.0, np.sum(weight * traces) / np.sum(weight) / pot.m),
        rel=1e-3, abs=2.0 ** -9)
    if pot.family == "quadratic":
        assert shift == pytest.approx(1.0, abs=1e-6)
    _, rep = minimize(u0, pot, tol=1e-6, max_iter=2)
    assert rep.shift == shift


def test_curvature_shift_is_clamped_at_zero():
    # a negative coefficient makes W concave: tr D^2W / m = -2 everywhere
    pot = anisotropic([0.0, 0.0], [-1.0, -1.0], [2, 2])
    g = Grid(2, 0.1, 2.0)
    x = np.random.default_rng(2).standard_normal((2, g.stencil[0].size))
    assert _curvature_shift(quadratic([0.0, 0.0]), g, x) == pytest.approx(1.0)
    assert _curvature_shift(pot, g, x) == 0.0


@pytest.mark.parametrize("q,mag", [(4, 2.0), (6, 1.0), (6, 2.0)])
def test_curvature_shift_discounts_the_boundary_layer(q, mag):
    # for power q > 2 the curvature of u0 sits in the layer at the ball's
    # edge where u0 is ramped to its data; the minimizer's interior keeps
    # far less. The weighted shift stays well below the plain mean there,
    # which (18 on 2D R=6 at q=6, magnitude 2) raised the count 67 -> 109
    g = Grid(2, 0.1, 6.0)
    pot = power([0.0, 0.0], q)
    u0 = initial_field(g, pot, angular(pot, mag))
    x = InteriorOperator(g, u0.values, pot).gather(u0.values)
    traces = np.array([np.trace(pot.hessian(p)) for p in x.T])
    shift = _curvature_shift(pot, g, x)
    assert 0.0 < shift < 0.2 * np.mean(traces) / pot.m
    _, rep = minimize(u0, pot, tol=1e-6)
    assert rep.converged


def test_solver_version_pins_the_solver_output():
    # pins one small solve: the counts exactly, the shift (no BLAS call on
    # its path) to 1e-12, and the field by two sums to 1e-11. Solvers that
    # both reach tol move these sums by about 1e-8: the multigrid C moved
    # them from 877.8351665685275 and 455.3892239307826, the energy from
    # 1.5473817563434682 and the count from 18; listing the interior red
    # first moved the shift's second differences from 0.2959591547976868
    g = Grid(2, 0.1, 2.0)
    pot = power([0.0, 0.0], 4)
    u, rep = minimize(initial_field(g, pot, angular(pot, 0.6)), pot,
                      tol=1e-6)
    assert (rep.iterations, rep.backtracks, rep.converged) == (10, 0, True)
    assert rep.shift == pytest.approx(0.2959591548355197, rel=1e-12)
    assert rep.energy == pytest.approx(1.5473817563433943, rel=1e-12)
    assert np.sum(u.values[0] * g.coords[0]) == pytest.approx(
        877.8351733118603, rel=1e-11)
    assert np.sum(u.values ** 2) == pytest.approx(455.3892305258338,
                                                  rel=1e-11)


def test_quadratic_iterations_barely_grow_with_the_ball():
    # the shift (1 for this W) puts W's curvature into C, so on 2D h=0.1
    # the count may grow at most 1.25x per doubling of R; with C inverting
    # h^n(-lap_h) alone it went 28, 40, 80 at R = 4, 8, 16
    pot = quadratic([0.0, 0.0])
    counts = []
    for r in (4.0, 8.0, 16.0):
        g = Grid(2, 0.1, r)
        _, rep = minimize(initial_field(g, pot, angular(pot, 0.6)), pot,
                          tol=1e-6)
        assert rep.converged
        counts.append(rep.iterations)
    for small, large in zip(counts, counts[1:]):
        assert large <= 1.25 * small, counts


def test_sup_residual_is_skipped_only_where_it_cannot_pass(monkeypatch):
    # the solve takes the sup residual only once sum |g|^2 <= 2 N (tol
    # h^n)^2; taking it on every iteration (dot(g, g) read as 0) must give
    # the same field and report, with more sup passes
    g = Grid(3, 0.2, 2.0)
    pot = power([0.0, 0.0], 4)
    u0 = initial_field(g, pot, angular(pot, 0.6))
    calls = []
    norm2 = _kernels.norm2

    def counting(d):
        calls.append(1)
        return norm2(d)

    monkeypatch.setattr(_kernels, "norm2", counting)
    u, rep = minimize(u0, pot, tol=1e-6)
    skipping = len(calls)
    dot = _kernels.dot
    monkeypatch.setattr(_kernels, "dot",
                        lambda a, b: 0.0 if a is b else dot(a, b))
    del calls[:]
    u_every, rep_every = minimize(u0, pot, tol=1e-6)
    assert rep.converged
    assert np.array_equal(u.values, u_every.values)
    assert rep.to_dict() == rep_every.to_dict()
    assert rep.energy_trace == rep_every.energy_trace
    assert skipping < len(calls)


def test_el_residual_examples(small_grid):
    pot = quadratic([0.0])
    u = VectorField.constant(small_grid, [0.0])
    assert el_residual(u, pot) == 0.0
    rnd = random_interior_field(small_grid, 1, 5)
    assert el_residual(rnd, pot) > 0.0


def test_el_residual_order_for_exact_solution():
    # u = exp(x1) solves lap u = u for W = u^2/2
    pot = quadratic([0.0])
    errs = []
    hs = [0.1, 0.05, 0.025]
    for h in hs:
        g = Grid(2, h, 1.0)
        u = VectorField.from_function(g, lambda x: np.exp(x[0]), m=1)
        errs.append(el_residual(u, pot))
    order = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert order > 1.9


def test_modica_examples(small_grid):
    pot = quadratic([0.0])
    u = VectorField.constant(small_grid, [0.0])
    assert modica_check(u, pot) == 0.0
    c = VectorField.constant(small_grid, [0.7])
    assert modica_check(c, pot) == pytest.approx(-pot.value([0.7]))
    # equipartition: u = exp(x1) has 1/2 |grad u|^2 = W(u) exactly;
    # the discrete deviation is + O(h^2) scaled by exp(2 r_max)
    g1 = Grid(2, 0.05, 1.0)
    u2 = VectorField.from_function(g1, lambda x: np.exp(x[0]), m=1)
    dev = modica_check(u2, pot)
    assert 0 <= dev < np.exp(2.0) * g1.h ** 2


@pytest.mark.parametrize("n,h,r", [(2, 0.1, 2.0), (3, 0.2, 1.6)])
@pytest.mark.parametrize("family", ["power", "quadratic"])
def test_reported_residual_is_a_direct_certificate(n, h, r, family):
    # the solver carries its Dirichlet gradient by a recurrence; the
    # reported residual must still be the one a fresh operator evaluates,
    # and the full-field evaluations of the output must reproduce the
    # report bit for bit, since they run the same operator
    g = Grid(n, h, r)
    pot = power([0.0, 0.0], 4) if family == "power" else quadratic([0.0, 0.0])
    u0 = initial_field(g, pot, angular(pot, 0.6))
    u, rep = minimize(u0, pot, tol=1e-6)
    op = InteriorOperator(g, u.values, pot)
    grad, _ = op.gradient(op.gather(u.values))
    assert rep.residual == _residual_from_grad(grad, g.cell)
    assert rep.converged and rep.residual <= rep.tol
    assert el_residual(u, pot) == rep.residual
    assert discrete_energy(u, pot) == rep.energy
    assert discrete_energy(u0, pot) == rep.energy_trace[0]


def test_unconverged_residual_is_a_direct_certificate():
    g = Grid(2, 0.1, 2.0)
    pot = power([0.0, 0.0], 4)
    u, rep = minimize(initial_field(g, pot, angular(pot, 0.7)), pot,
                      tol=1e-12, max_iter=7)
    op = InteriorOperator(g, u.values, pot)
    grad, _ = op.gradient(op.gather(u.values))
    assert not rep.converged and rep.iterations == 7
    assert rep.residual == _residual_from_grad(grad, g.cell)
    assert el_residual(u, pot) == rep.residual
    assert discrete_energy(u, pot) == rep.energy


def test_iterations_grow_sublinearly_in_inverse_h():
    # the preconditioned iteration count must not grow like 1/h: halving h
    # on the power-4 disc of radius 4 may raise the median count over
    # three starts (perturbed by 1e-13 relative, since roundoff alone
    # spreads single counts) by less than 1.5x
    pot = power([0.0, 0.0], 4)
    medians = []
    for h in (0.1, 0.05):
        g = Grid(2, h, 4.0)
        u0 = initial_field(g, pot, angular(pot, 0.6))
        inner = g.mask == INTERIOR
        counts = []
        for seed in range(3):
            vals = u0.values.copy()
            noise = np.random.default_rng(seed).standard_normal(
                vals[:, inner].shape)
            vals[:, inner] *= 1.0 + 1e-13 * noise
            _, rep = minimize(u0.with_values(vals), pot, tol=1e-6)
            assert rep.converged
            counts.append(rep.iterations)
        medians.append(float(np.median(counts)))
    assert medians[1] < 1.5 * medians[0], medians


def test_bb2_steps_rarely_backtrack():
    # preconditioned BB2 steps pass Armijo on the first trial most of the
    # time
    g = Grid(2, 0.1, 2.0)
    pot = power([0.0, 0.0], 4)
    u, rep = minimize(initial_field(g, pot, angular(pot, 0.7)), pot,
                      tol=1e-6)
    assert rep.converged
    assert rep.backtracks <= rep.iterations // 2


def test_minimize_3d_smoke():
    g = Grid(3, 0.15, 1.2)
    pot = power([0.0, 0.0], 4)
    u0 = initial_field(g, pot, angular(pot, 0.4))
    u, rep = minimize(u0, pot, tol=1e-5, max_iter=20_000)
    assert rep.converged
    assert el_residual(u, pot) <= 1e-5


def test_minimize_trace_ends_at_reported_energy():
    # the trace is the initial energy plus the accepted line-search
    # decrements; the reported energy is discrete_energy at the output
    g = Grid(2, 0.1, 2.0)
    pot = power([0.0, 0.0], 4)
    u0 = initial_field(g, pot, angular(pot, 0.7))
    u, rep = minimize(u0, pot, tol=1e-6)
    assert rep.energy_trace[0] == discrete_energy(u0, pot)
    assert rep.energy == discrete_energy(u, pot)
    assert rep.energy == pytest.approx(rep.energy_trace[-1], rel=1e-12)


# sup error against the Bessel solution, measured with the first-order
# staircase boundary at h = 0.2, 0.1, 0.05
BESSEL_SUP_ERRORS = {0.2: 6.311e-2, 0.1: 3.143e-2, 0.05: 1.582e-2}


def test_minimize_converges_to_bessel_solution():
    # W = |u|^2/2 with data 0.6 (cos t, sin t) on B_4: lap u = u is solved
    # by 0.6 I_1(r)/I_1(4) (cos t, sin t)
    from scipy.special import iv
    pot = quadratic([0.0, 0.0])
    errs = []
    for h, measured in BESSEL_SUP_ERRORS.items():
        g = Grid(2, h, 4.0)
        u, rep = minimize(initial_field(g, pot, angular(pot, 0.6)), pot,
                          tol=1e-6)
        assert rep.converged
        theta = np.arctan2(g.coords[1], g.coords[0])
        exact = (0.6 * iv(1, g.radius) / iv(1, 4.0)
                 * np.stack([np.cos(theta), np.sin(theta)]))
        err = np.sqrt(np.sum((u.values - exact) ** 2, axis=0))
        errs.append(float(err[g.mask == INTERIOR].max()))
        assert errs[-1] <= 1.1 * measured
    for coarse, fine in zip(errs, errs[1:]):
        assert np.log2(coarse / fine) >= 0.8


# sup error against the closed-form power-family solution, measured with
# the exact values on the ring nodes
POWER_SUP_ERRORS = {
    (2, 4): {0.2: 1.391e-3, 0.1: 3.256e-4, 0.05: 8.008e-5},
    (2, 6): {0.2: 4.481e-4, 0.1: 1.069e-4, 0.05: 2.617e-5},
    (3, 4): {0.2: 1.091e-3, 0.1: 2.585e-4},
    (3, 6): {0.2: 3.293e-4, 0.1: 7.769e-5},
}


@pytest.mark.parametrize("n, q", sorted(POWER_SUP_ERRORS))
def test_minimize_converges_to_power_solution(n, q):
    # W = |u - a|^q: lap u = q |u - a|^(q-2) (u - a) is solved by
    # u = a + alpha (x_1 + c)^(-p) v with p = 2/(q - 2), alpha^(q-2) =
    # p(p + 1)/q and |v| = 1. e is the first axis: a diagonal e would make
    # x.e + c negative at the cube corners.
    r_max, c = (4.0, 5.0) if n == 2 else (2.0, 3.0)
    a = np.array([0.1, -0.2]).reshape((-1,) + (1,) * n)
    v = np.array([0.6, 0.8]).reshape((-1,) + (1,) * n)
    p = 2.0 / (q - 2)
    alpha = (p * (p + 1) / q) ** (1.0 / (q - 2))

    def exact(x):
        return a + alpha * (x[0] + c) ** (-p) * v

    pot = power([0.1, -0.2], q)
    errs = []
    for h, measured in POWER_SUP_ERRORS[n, q].items():
        g = Grid(n, h, r_max)
        u, rep = minimize(initial_field(g, pot, exact), pot, tol=1e-9)
        assert rep.converged
        err = np.sqrt(np.sum((u.values - exact(g.coords)) ** 2, axis=0))
        errs.append(float(err[g.mask == INTERIOR].max()))
        assert errs[-1] <= 1.1 * measured
    for coarse, fine in zip(errs, errs[1:]):
        assert np.log2(coarse / fine) >= 1.9
