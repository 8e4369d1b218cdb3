"""Each field analysis differentiates its field in one centered-difference
pass: n*m calls of np.gradient, never a second pass."""

import numpy as np
import pytest

from vacmin import field, minimizer, monotonicity
from vacmin.field import Grid, VectorField
from vacmin.potentials import quadratic

CALLS = {
    "energy_density": field.energy_density,
    "gradient_sq": lambda u, pot: field.gradient_sq(u),
    "partial_derivatives": lambda u, pot: field.partial_derivatives(u),
    "modica_check": minimizer.modica_check,
    "stress_tensor": monotonicity.stress_tensor,
    "monotone_quantities":
        lambda u, pot: monotonicity.monotone_quantities(u, pot, [0.5, 1.0]),
    "pohozaev_balance":
        lambda u, pot: monotonicity.pohozaev_balance(u, pot, 1.0, K=64),
}


@pytest.mark.parametrize("n,h", [(2, 0.1), (3, 0.2)])
@pytest.mark.parametrize("name", sorted(CALLS))
def test_one_derivative_pass_per_call(monkeypatch, n, h, name):
    pot = quadratic([0.0, 0.0])
    u = VectorField.constant(Grid(n, h, 1.6), [0.0, 0.0])
    calls = []
    gradient = np.gradient

    def counting(*args, **kwargs):
        calls.append(1)
        return gradient(*args, **kwargs)

    monkeypatch.setattr(np, "gradient", counting)
    CALLS[name](u, pot)
    assert len(calls) == n * u.m


def test_stress_tensor_keeps_its_density(rng):
    g = Grid(3, 0.2, 1.2)
    pot = quadratic([0.1, -0.2])
    u = VectorField(g, rng.standard_normal((2,) + g.shape))
    T = monotonicity.stress_tensor(u, pot)
    assert np.array_equal(T.density, field.energy_density(u, pot).values)
