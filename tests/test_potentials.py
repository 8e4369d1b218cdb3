"""Potential families: values, derivatives, and assumption verification."""

import numpy as np
import pytest

from vacmin.potentials import (anisotropic, power, product_perturbed,
                               quadratic, verify_assumptions)

ALL_FAMILIES = [
    quadratic([0.5, -0.2]),
    power([0.0, 0.3], 4),
    power([0.1], 3),
    anisotropic([0.0, 0.0], [1.0, 1.0], [2, 4]),
    product_perturbed([0.2, 0.1, -0.3]),
]


def test_quadratic_closed_form():
    pot = quadratic([0.0])
    assert pot.value([2.0]) == 2.0
    assert pot.grad([3.0]) == pytest.approx([3.0])
    assert np.allclose(pot.hessian([3.0]), [[1.0]])


def test_value_at_zero_is_zero():
    for pot in ALL_FAMILIES:
        assert pot.value(pot.zero) == 0.0
        assert np.allclose(pot.grad(pot.zero), 0.0)


def test_anisotropic_closed_form():
    pot = anisotropic([0.0, 0.0], [1.0, 1.0], [2, 4])
    assert pot.value([1.0, 1.0]) == pytest.approx(2.0)
    assert pot.grad([1.0, 1.0]) == pytest.approx([2.0, 4.0])


def test_non_finite_input_rejected():
    pot = quadratic([0.0])
    with pytest.raises(ValueError):
        pot.value([np.nan])
    with pytest.raises(ValueError):
        pot.grad([np.inf])


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(7)
    for pot in ALL_FAMILIES:
        m = pot.m
        for _ in range(100 // len(ALL_FAMILIES) + 1):
            u = pot.zero + rng.uniform(-1.5, 1.5, m)
            if np.linalg.norm(u - pot.zero) < 1e-3:
                continue
            g = pot.grad(u)
            eps = 1e-6
            for k in range(m):
                e = np.zeros(m)
                e[k] = eps
                fd = (pot.value(u + e) - pot.value(u - e)) / (2 * eps)
                denom = max(1.0, abs(fd))
                assert abs(g[k] - fd) / denom < 1e-6, (pot.family, u, k)


def test_hessian_matches_grad_differences():
    rng = np.random.default_rng(8)
    for pot in ALL_FAMILIES:
        m = pot.m
        for _ in range(20):
            u = pot.zero + rng.uniform(-1.2, 1.2, m)
            if np.linalg.norm(u - pot.zero) < 5e-2:
                continue
            H = pot.hessian(u)
            eps = 1e-5
            for k in range(m):
                e = np.zeros(m)
                e[k] = eps
                fd = (pot.grad(u + e) - pot.grad(u - e)) / (2 * eps)
                assert np.abs(H[:, k] - fd).max() < 1e-5 * max(
                    1.0, np.abs(fd).max()), (pot.family, u)


def test_hessian_symmetry():
    rng = np.random.default_rng(9)
    for pot in ALL_FAMILIES:
        u = pot.zero + rng.uniform(-1, 1, pot.m)
        H = pot.hessian(u)
        assert np.allclose(H, H.T)


def test_vectorized_matches_pointwise():
    rng = np.random.default_rng(10)
    for pot in ALL_FAMILIES:
        pts = pot.zero[:, None] + rng.uniform(-2, 2, (pot.m, 50))
        w = pot.value_field(pts)
        g = pot.grad_field(pts)
        for i in range(50):
            assert w[i] == pytest.approx(pot.value(pts[:, i]), rel=1e-12)
            assert g[:, i] == pytest.approx(pot.grad(pts[:, i]), rel=1e-12)


# ---------------------------------------------------------------------------
# assumption reports


def test_quadratic_assumptions():
    rep = verify_assumptions(quadratic([0.0, 0.0]), samples=128, seed=0)
    assert rep.positive_ok
    assert rep.lower_bound_ok          # W = |u|^2/2 >= 0.5 r^2 exactly
    assert rep.radial_monotone_ok
    assert rep.hessian_pd_ok
    assert rep.positive_near_zero_ok


def test_power_families_lower_bound_margins():
    for q in (2, 3, 4, 6):
        pot = power([0.0, 0.0], q)
        rep = verify_assumptions(pot, samples=128, seed=1)
        assert rep.lower_bound_ok, q
        assert rep.lower_bound_margin >= -1e-12
        # degenerate Hessian exactly when q > 2
        assert rep.hessian_pd_ok == (q == 2)


def test_anisotropic_needs_top_power():
    # W = u1^2 + u2^4: along (0, 1) the growth is quartic, so a quadratic
    # lower bound must fail while the quartic one holds
    pot = anisotropic([0.0, 0.0], [1.0, 1.0], [2, 4])
    assert pot.exponent == 4.0
    rep = verify_assumptions(pot, samples=256, seed=2)
    assert rep.lower_bound_ok
    # brute-force direction scan: min over nu of W(r nu)/r^4 at small r is
    # attained near nu = (0, 1) and exceeds the declared constant
    thetas = np.linspace(0, 2 * np.pi, 2000, endpoint=False)
    nus = np.stack([np.cos(thetas), np.sin(thetas)])
    for r in (1e-3, 1e-2, 0.1, 1.0):
        ratio = pot.value_field(r * nus) / r ** 4
        assert ratio.min() >= pot.lower_coef - 1e-12
    r = 1e-3
    ratio = pot.value_field(r * nus) / r ** 4
    worst = nus[:, int(np.argmin(ratio))]
    assert abs(abs(worst[1]) - 1.0) < 1e-2

    bad = anisotropic([0.0, 0.0], [1.0, 1.0], [2, 4], exponent=2.0,
                      lower_coef=0.25)
    rep2 = verify_assumptions(bad, samples=256, seed=3)
    assert not rep2.lower_bound_ok


def test_negative_coefficient_fails_positivity():
    # a deliberately invalid potential: W < 0 along the first axis
    bad = anisotropic([0.0, 0.0], [-1.0, 1.0], [2, 4])
    rep = verify_assumptions(bad, samples=128, seed=4)
    assert not rep.positive_ok
    assert rep.positive_worst < 0


def test_report_reproducible_from_seed():
    pot = product_perturbed([0.0, 0.0])
    a = verify_assumptions(pot, samples=64, seed=11)
    b = verify_assumptions(pot, samples=64, seed=11)
    assert a.to_dict() == b.to_dict()
    c = verify_assumptions(pot, samples=64, seed=12)
    assert c.lower_bound_worst_r != a.lower_bound_worst_r or True  # may differ


def _families(m):
    zero = np.linspace(-0.2, 0.3, m)
    return [quadratic(zero), power(zero, 4), power(zero, 3),
            anisotropic(zero, np.linspace(1.0, 2.0, m),
                        [2 + 2 * (c % 2) for c in range(m)]),
            product_perturbed(zero)]


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("shape", [(257,), (9, 11)])
def test_field_evaluators_independent_of_layout(m, shape):
    # the solver's iterates are planar (component-major); point-major
    # input must give the same bits
    rng = np.random.default_rng(m)
    vals = rng.standard_normal((m,) + shape)
    planar, pointwise = np.ascontiguousarray(vals), np.asfortranarray(vals)
    assert planar.flags.c_contiguous and pointwise.flags.f_contiguous
    for pot in _families(m):
        assert np.array_equal(pot.value_field(planar),
                              pot.value_field(pointwise)), pot.family
        assert np.array_equal(pot.grad_field(planar),
                              pot.grad_field(pointwise)), pot.family


@pytest.mark.parametrize("zero", [[0.25, -0.5], [0.0, 0.0]])
@pytest.mark.parametrize("q", [2.0, 2.5, 3.0, 4.0, 6.0])
def test_power_grad_field_matches_case_split_formula(q, zero):
    # the former body: the factor forced to 0 where rho = 0, broadcast
    # over the components; the result must agree to the bit, signed
    # zeros included (d = -0.0 needs u = -0.0 and a zero of +0.0)
    pot = power(zero, q)
    vals = np.random.default_rng(int(4 * q)).standard_normal((2, 5, 6))
    vals[:, 0, :3] = pot.zero[:, None]                       # rho = 0
    vals[:, 1, :3] = -0.0 if zero[0] == 0.0 else pot.zero[:, None]
    vals[:, 2, 0] = [-0.0, 0.0]
    vals[:, 3, 0] = np.nextafter(pot.zero, 1.0)              # rho tiny
    d = vals - pot.zero[:, None, None]
    rho2 = d[0] * d[0] + d[1] * d[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        fac = np.where(rho2 > 0.0, q * rho2 ** (q / 2.0 - 1.0), 0.0)
    ref = fac * d
    got = pot.grad_field(vals)
    if q == 2.0 and zero[0] == 0.0:
        # rho^2 underflows to 0 at d = 5e-324: the case split gave 0 there,
        # the gradient is 2 d
        assert np.array_equal(got[:, 3, 0], 2.0 * d[:, 3, 0])
        got[:, 3, 0] = ref[:, 3, 0]
    assert np.array_equal(got, ref)
    assert np.array_equal(np.signbit(got), np.signbit(ref))
    assert (got[:, 0, :3] == 0.0).all()
    if zero[0] == 0.0:
        assert np.signbit(got[:, 1, :3]).all()


def test_power_four_squares_with_the_bits_of_the_power_loop():
    # value_field squares |d|^2 for q = 4; np.square gives the bits of the
    # generic power loop rho2 ** 2.0 it replaces
    pot = power([0.1, -0.2], 4)
    vals = np.random.default_rng(9).standard_normal((2, 33401)) * 3.0
    d = vals - np.array([0.1, -0.2])[:, None]
    rho2 = d[0] * d[0] + d[1] * d[1]
    want = rho2 ** 2.0
    assert pot.value_field(vals).tobytes() == want.tobytes()
