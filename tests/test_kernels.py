"""The interior-only operator against the full-cube edge-sum oracle."""

import numpy as np
import pytest

from vacmin import _kernels as K
from vacmin.field import Grid
from vacmin.potentials import anisotropic, power, product_perturbed, quadratic

POTS = [
    quadratic([0.1, -0.2]),
    power([0.0, 0.0], 4),
    power([0.0, 0.0], 3),
    anisotropic([0.0, 0.1], [1.0, 2.0], [2, 4]),
    product_perturbed([0.3, -0.2]),
]

GRIDS = [(2, 0.1, 1.5), (3, 0.2, 1.2)]


@pytest.mark.parametrize("n,h,r", GRIDS)
@pytest.mark.parametrize("pot", POTS, ids=lambda p: p.family)
def test_operator_matches_oracle(n, h, r, pot):
    g = Grid(n, h, r)
    rng = np.random.default_rng(3)
    vals = rng.standard_normal((2,) + g.shape)
    op = K.InteriorOperator(g, vals, pot)
    g_op = op.gradient(op.gather(vals))[0]
    e_or, g_or = K.energy_and_grad(vals, g.mask, g.h, pot)
    assert e_or == pytest.approx(K.energy_only(vals, g.mask, g.h, pot),
                                 rel=1e-12)
    assert np.abs(g_op - op.gather(g_or)).max() <= 1e-12 * np.abs(g_or).max()
    assert np.array_equal(op.scatter(vals, op.gather(vals)), vals)


@pytest.mark.parametrize("n,h,r", GRIDS)
@pytest.mark.parametrize("pot", POTS, ids=lambda p: p.family)
def test_line_decrement_matches_oracle(n, h, r, pot):
    g = Grid(n, h, r)
    rng = np.random.default_rng(4)
    vals = rng.standard_normal((2,) + g.shape)
    op = K.InteriorOperator(g, vals, pot)
    x = op.gather(vals)
    direction = rng.standard_normal(x.shape)
    _, grad_d = op.gradient(x)
    decrement, ag = op.line(x, direction, grad_d, pot.value_field(x))
    assert np.abs(grad_d - ag - op.gradient(x - direction)[1]).max() \
        <= 1e-12 * np.abs(grad_d).max()
    e_x = K.energy_only(vals, g.mask, g.h, pot)
    for t in rng.uniform(1e-4, 0.5, 5):
        de, trial, w_t = decrement(t)
        e_t = K.energy_only(op.scatter(vals, x - t * direction), g.mask,
                            g.h, pot)
        assert abs(de - (e_t - e_x)) <= 1e-12 * max(1.0, abs(e_x))
        assert np.array_equal(trial, x - t * direction)
        assert np.array_equal(w_t, pot.value_field(trial))


@pytest.mark.parametrize("n,h,r", GRIDS)
def test_operator_arrays_are_planar(n, h, r):
    # every (m, N) array of the solve is C-contiguous, so elementwise
    # passes run along N rather than along the m components
    g = Grid(n, h, r)
    pot = power([0.0, 0.0], 4)
    vals = np.random.default_rng(5).standard_normal((2,) + g.shape)
    op = K.InteriorOperator(g, vals, pot)
    x = op.gather(vals)
    grad, grad_d = op.gradient(x)
    decrement, ag = op.line(x, grad, grad_d, pot.value_field(x))
    _, trial, w_t = decrement(1e-3)
    for a in (x, grad, grad_d, ag, trial, w_t):
        assert a.flags.c_contiguous
    assert x.shape == (2, op.n_int)
