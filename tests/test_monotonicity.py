"""Stress tensor identities, divergence, flux balance, monotone quantities."""

import json

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import i0

from conftest import interior_sup, random_interior_field, stress_divergence
from vacmin.field import Grid, VectorField, INTERIOR
from vacmin.minimizer import el_residual
from vacmin.monotonicity import (MonotonicityReport, NotASolution,
                                 monotone_quantities, pohozaev_balance,
                                 positivity_check, stress_tensor)
from vacmin.potentials import power, quadratic


def test_tensor_zero_field(small_grid):
    pot = quadratic([0.0])
    u = VectorField.constant(small_grid, [0.0])
    T = stress_tensor(u, pot)
    assert np.abs(T.values).max() == 0.0
    assert positivity_check(T) == 0.0


def test_tensor_closed_form_exponential(small_grid):
    # u = exp(-x1), W = u^2/2: T11 = 0, T22 = -exp(-2 x1), T12 = 0
    pot = quadratic([0.0])
    u = VectorField.from_function(small_grid, lambda x: np.exp(-x[0]), m=1)
    T = stress_tensor(u, pot)
    sel = small_grid.mask == INTERIOR
    ref = np.exp(-2 * small_grid.coords[0])
    h2 = small_grid.h ** 2
    assert np.abs(T.values[0, 0][sel]).max() < 40 * h2
    assert np.abs((T.values[1, 1] + ref))[sel].max() < 40 * h2
    assert np.abs(T.values[0, 1][sel]).max() < 40 * h2


def test_trace_identity_pointwise(small_grid):
    # tr T = -((n-2)/2 |grad u|^2 + n W): exact algebra, any field
    pot = power([0.0, 0.0], 4)
    for seed in range(10):
        u = random_interior_field(small_grid, 2, seed)
        T = stress_tensor(u, pot)
        tr = np.einsum("ii...->...", T.values)
        from vacmin.field import gradient_sq
        gsq = gradient_sq(u).values
        w = pot.value_field(u.values)
        n = small_grid.n
        rhs = -(0.5 * (n - 2) * gsq + n * w)
        assert np.abs(tr - rhs).max() < 1e-12


def test_gram_positivity_pointwise(small_grid):
    # T + e I = (grad u)^T (grad u) >= 0: exact algebra, any field
    pot = quadratic([0.0, 0.0])
    for seed in range(10):
        u = random_interior_field(small_grid, 2, seed + 50)
        T = stress_tensor(u, pot)
        assert positivity_check(T) >= -1e-12


def test_gram_rank_one_for_scalar_fields(small_grid):
    # m = 1: the Gram matrix has rank <= 1 with eigenvalue |grad u|^2
    pot = quadratic([0.0])
    u = VectorField.from_function(small_grid,
                                  lambda x: np.sin(x[0]) + 0.3 * x[1], m=1)
    T = stress_tensor(u, pot)
    from vacmin.field import gradient_sq
    e = 0.5 * gradient_sq(u).values + pot.value_field(u.values)
    M = T.values + np.einsum("ij,...->ij...", np.eye(2), e)
    sel = small_grid.mask == INTERIOR
    stack = np.moveaxis(M[..., sel], (0, 1), (-2, -1))
    eigs = np.linalg.eigvalsh(stack)
    gsq = gradient_sq(u).values[sel]
    assert np.abs(eigs[:, 0]).max() < 1e-12          # rank <= 1
    assert np.abs(eigs[:, 1] - gsq).max() < 1e-10    # top eigenvalue


def test_divergence_zero_tensor(small_grid):
    pot = quadratic([0.0])
    u = VectorField.constant(small_grid, [0.0])
    div = stress_divergence(stress_tensor(u, pot))
    assert np.abs(div.values).max() == 0.0


def test_divergence_vanishes_for_solution():
    pot = quadratic([0.0])
    errs = []
    hs = [0.1, 0.05, 0.025]
    for h in hs:
        g = Grid(2, h, 1.0)
        u = VectorField.from_function(g, lambda x: np.exp(-x[0]), m=1)
        div = stress_divergence(stress_tensor(u, pot))
        errs.append(interior_sup(div))
    order = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert order > 1.8


def test_divergence_refines_on_solver_output():
    # solver fields carry residual <= tol; their tensor divergence shrinks
    # under refinement at measured order >= 1, with the constant recorded.
    # Measure at a fixed physical margin: the staircase Dirichlet ring sheds
    # mesh-scale noise that only decays over a fixed distance, not a fixed
    # number of cells.
    from vacmin.boundary import initial_field
    from vacmin.minimizer import minimize
    pot = quadratic([0.0])
    tol = 1e-8
    sups = []
    hs = [0.2, 0.1, 0.05]
    for h in hs:
        g = Grid(2, h, 2.0)
        u0 = initial_field(
            g, pot, lambda x: 0.3 * np.cos(np.arctan2(x[1], x[0]))[None])
        u, rep = minimize(u0, pot, tol=tol, max_iter=100_000)
        assert rep.converged
        div = stress_divergence(stress_tensor(u, pot))
        sups.append(interior_sup(div, margin=0.3))
    order = np.polyfit(np.log(hs), np.log(sups), 1)[0]
    assert order >= 1.0, (sups, order)
    c_rec = max(s / (tol + h) for s, h in zip(sups, hs))
    print(f"div-T constant c = {c_rec:.3f} over h = {hs}")


def test_potential_part_scales_linearly(small_grid):
    # doubling W doubles the potential part of the ball integrals exactly
    from vacmin.field import ScalarField, integrate_ball
    from vacmin.potentials import anisotropic
    p1 = anisotropic([0.0, 0.0], [1.0, 1.0], [2, 4])
    p2 = anisotropic([0.0, 0.0], [2.0, 2.0], [2, 4])
    u = random_interior_field(small_grid, 2, 77)
    w1 = integrate_ball(ScalarField(small_grid, p1.value_field(u.values)), 1.5)
    w2 = integrate_ball(ScalarField(small_grid, p2.value_field(u.values)), 1.5)
    assert w2 == 2.0 * w1


def test_divergence_nonzero_for_random(small_grid):
    pot = quadratic([0.0, 0.0])
    u = random_interior_field(small_grid, 2, 3)
    div = stress_divergence(stress_tensor(u, pot))
    assert interior_sup(div) > 1e-3


def test_pohozaev_zero_field(small_grid):
    pot = quadratic([0.0])
    u = VectorField.constant(small_grid, [0.0])
    vol, bnd, gap = pohozaev_balance(u, pot, 1.0)
    assert vol == pytest.approx(0.0, abs=1e-12)
    assert bnd == pytest.approx(0.0, abs=1e-12)
    assert gap == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("R", [-1.0, 0.0, float("nan")])
def test_pohozaev_refuses_a_radius_that_is_not_positive(small_grid, R):
    # R = 0 gave (0, nan, nan) and R = -1 an IndexError
    u = random_interior_field(small_grid, 1, 9)
    with pytest.raises(ValueError, match="not positive"):
        pohozaev_balance(u, quadratic([0.0]), R)


def test_pohozaev_closed_form_exponential():
    # u = exp(-x1): both sides equal -2 pi int_0^R I0(2r) r dr; quad oracle
    pot = quadratic([0.0])
    R = 1.0
    g = Grid(2, 0.02, 1.2)
    u = VectorField.from_function(g, lambda x: np.exp(-x[0]), m=1)
    vol, bnd, gap = pohozaev_balance(u, pot, R, K=2048)
    exact = -2 * np.pi * quad(lambda r: i0(2 * r) * r, 0, R)[0]
    assert vol == pytest.approx(exact, rel=2e-2)
    assert bnd == pytest.approx(exact, rel=2e-2)
    assert abs(vol - bnd) < 2e-2 * abs(exact)
    assert gap >= -1e-9  # boundary flux dominates -R * slice energy


def test_pohozaev_disagrees_for_non_solution(small_grid):
    pot = quadratic([0.0])
    u = random_interior_field(small_grid, 1, 9, scale=1.0)
    vol, bnd, _ = pohozaev_balance(u, pot, 1.5)
    assert abs(vol - bnd) > 1e-2


def test_monotone_quantities_zero(small_grid):
    pot = quadratic([0.0])
    u = VectorField.constant(small_grid, [0.0])
    rep = monotone_quantities(u, pot, [0.5, 1.0, 1.5])
    assert rep.weak == [0.0, 0.0, 0.0]
    assert rep.weak_violations == []
    assert rep.strong_applicable


def test_monotone_quantities_requires_solution(small_grid):
    pot = quadratic([0.0])
    u = random_interior_field(small_grid, 1, 4, scale=1.0)
    with pytest.raises(NotASolution):
        monotone_quantities(u, pot, [0.5, 1.0], resid_tol=1e-6)


def test_weak_monotone_in_2d_exponential(small_grid):
    # n=2: R^{2-n} f(R) = f(R) is an integral of a nonnegative density
    pot = quadratic([0.0])
    u = VectorField.from_function(small_grid, lambda x: np.exp(x[0]), m=1)
    rep = monotone_quantities(u, pot, np.linspace(0.4, 1.6, 8),
                              resid_tol=1.0)
    assert rep.weak_violations == []


def test_monotone_quantities_form_ball_weights_once_per_radius(
        monkeypatch, small_grid):
    # one set of ball weights per radius serves the f and the energy
    # integrals, each with the bits of integrate_ball; the Modica check
    # still reads W(u), not the weights
    from vacmin import field
    from vacmin.field import ScalarField, gradient_sq, integrate_ball
    from vacmin.minimizer import _modica

    pot = quadratic([0.0])
    u = VectorField.from_function(small_grid, lambda x: np.exp(x[0]), m=1)
    radii = [0.5, 0.8, 1.1, 1.5]
    calls = []
    weights = field.ball_weights

    def counted(grid, R):
        calls.append(R)
        return weights(grid, R)

    monkeypatch.setattr(field, "ball_weights", counted)
    rep = monotone_quantities(u, pot, radii, resid_tol=1.0)
    assert calls == radii
    gsq = gradient_sq(u).values
    w = pot.value_field(u.values)
    fdens = ScalarField(small_grid, 0.5 * (2 - 2) * gsq + 2 * w)
    edens = ScalarField(small_grid, 0.5 * gsq + w)
    assert rep.f_values == [integrate_ball(fdens, r) for r in radii]
    assert rep.energies == [integrate_ball(edens, r) for r in radii]
    assert rep.modica == _modica(gsq, w, small_grid.mask)


def test_monotone_3d_radial_solution_with_quad_oracle():
    # n=3 radial solution of lap u = u: u = sinh(r)/r; f(R)/R nondecreasing,
    # f values checked against high-resolution 1-d radial quadrature
    pot = quadratic([0.0])
    g = Grid(3, 0.1, 2.2)

    def radial(x):
        r = np.sqrt(np.sum(x ** 2, axis=0))
        return np.where(r > 1e-12, np.sinh(r) / np.where(r > 0, r, 1.0), 1.0)[None]

    u = VectorField.from_function(g, radial)
    assert el_residual(u, pot) < 0.05
    radii = np.linspace(0.5, 2.0, 8)
    rep = monotone_quantities(u, pot, radii, resid_tol=0.1, c_m=1.0)

    def up(r):
        return np.cosh(r) / r - np.sinh(r) / r ** 2

    def fdens(r):
        uu = np.sinh(r) / r
        return (0.5 * up(r) ** 2 + 3.0 * 0.5 * uu ** 2) * 4 * np.pi * r ** 2

    for R, fv in zip(radii, rep.f_values):
        exact = quad(fdens, 1e-9, R)[0]
        assert fv == pytest.approx(exact, rel=2e-2), R
    # R^{2-n} f = f/R nondecreasing within 1e-3
    seq = rep.weak
    assert all(b >= a - 1e-3 for a, b in zip(seq, seq[1:]))


def test_report_roundtrip(small_grid):
    pot = quadratic([0.0])
    u = VectorField.constant(small_grid, [0.0])
    rep = monotone_quantities(u, pot, [0.5, 1.0])
    assert isinstance(rep, MonotonicityReport)
    d = rep.to_dict()
    assert json.loads(json.dumps(d, sort_keys=True)) == d
