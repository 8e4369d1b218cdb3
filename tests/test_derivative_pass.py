"""Each field analysis differentiates its field in one centered-difference
pass: one call of _kernels.differences, never a second pass."""

import numpy as np
import pytest

from vacmin import _kernels, field, minimizer, monotonicity
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
    calls, gradients = [], []
    differences, gradient = _kernels.differences, np.gradient

    def counting(*args, **kwargs):
        calls.append(1)
        return differences(*args, **kwargs)

    def counting_gradient(*args, **kwargs):
        gradients.append(1)
        return gradient(*args, **kwargs)

    monkeypatch.setattr(_kernels, "differences", counting)
    # the kernel differences without np.gradient, so any call is a second pass
    monkeypatch.setattr(np, "gradient", counting_gradient)
    CALLS[name](u, pot)
    assert len(calls) == 1
    assert not gradients


def gradient_stack(vals, h):
    """The derivative stack by np.gradient, one component and axis at a
    time: the reference _kernels.derivatives must match bit for bit."""
    out = np.empty((vals.ndim - 1,) + vals.shape)
    for ax in range(vals.ndim - 1):
        for c in range(vals.shape[0]):
            out[ax, c] = np.gradient(vals[c], h, axis=ax)
    return out


@pytest.mark.parametrize("shape", [(2, 45, 45, 45), (3, 41, 41), (1, 2, 2),
                                   (2, 3, 4, 5)])
@pytest.mark.parametrize("h", [0.2, 0.1, 1.0 / 3.0])
def test_derivatives_match_np_gradient(shape, h):
    r = np.random.default_rng(len(shape) + shape[-1])
    vals = r.standard_normal(shape) * 10.0 ** r.uniform(-3, 3, shape)
    got = _kernels.derivatives(vals, h)
    assert np.array_equal(got.view(np.int64),
                          gradient_stack(vals, h).view(np.int64))


def test_stress_tensor_keeps_its_density(rng):
    g = Grid(3, 0.2, 1.2)
    pot = quadratic([0.1, -0.2])
    u = VectorField(g, rng.standard_normal((2,) + g.shape))
    T = monotonicity.stress_tensor(u, pot)
    assert np.array_equal(T.density, field.energy_density(u, pot).values)


@pytest.mark.parametrize("shape", [(2, 45, 45, 45), (3, 41, 41), (1, 2, 2),
                                   (2, 3, 4, 5)])
def test_gradient_sq_matches_the_stack_sum(shape):
    # one difference at a time, summed in the stack's order: components
    # outer, axes inner, from zero
    r = np.random.default_rng(shape[-1])
    vals = r.standard_normal(shape) * 10.0 ** r.uniform(-3, 3, shape)
    P = _kernels.derivatives(vals, 0.2)
    want = np.zeros(shape[1:])
    for c in range(shape[0]):
        for ax in range(len(shape) - 1):
            want += P[ax, c] * P[ax, c]
    got = _kernels.gradient_sq(vals, 0.2)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
