"""The interior-only operator against the full-cube edge-sum oracle."""

import tracemalloc

import numpy as np
import pytest

from vacmin import _kernels as K
from vacmin.boundary import angular, initial_field
from vacmin.minimizer import minimize
from vacmin.competitor import build_shell
from vacmin.field import BOUNDARY, INTERIOR, Grid
from vacmin.potentials import anisotropic, power, product_perturbed, quadratic

POTS = [
    quadratic([0.1, -0.2]),
    power([0.0, 0.0], 4),
    power([0.0, 0.0], 3),
    anisotropic([0.0, 0.1], [1.0, 2.0], [2, 4]),
    product_perturbed([0.3, -0.2]),
]

GRIDS = [(2, 0.1, 1.5), (3, 0.2, 1.2)]


def edge_slices(n, ax):
    """(lo, hi): index tuples of the lower and the upper endpoints of the
    edges along axis ax of an n-dimensional grid."""
    lo = [slice(None)] * n
    hi = [slice(None)] * n
    lo[ax] = slice(None, -1)
    hi[ax] = slice(1, None)
    return tuple(lo), tuple(hi)


def edge_energy_and_grad(vals, mask, h, pot):
    """Oracle: the discrete energy as the full-cube sum over every edge with
    an interior endpoint, and its gradient (zero off the interior)."""
    n = vals.ndim - 1
    cell = h ** n
    interior = mask == INTERIOR
    grad = np.zeros_like(vals)
    e = 0.0
    scale = cell / (h * h)
    for ax in range(n):
        lo, hi = edge_slices(n, ax)
        inc = (mask[lo] == INTERIOR) | (mask[hi] == INTERIOR)
        d = (vals[(slice(None),) + hi] - vals[(slice(None),) + lo]) * inc
        e += 0.5 * float(np.sum(d * d)) / (h * h)
        grad[(slice(None),) + lo] -= d * scale
        grad[(slice(None),) + hi] += d * scale
    e += float(np.sum(pot.value_field(vals)[interior]))
    grad += pot.grad_field(vals) * cell
    grad[:, ~interior] = 0.0
    return e * cell, grad


@pytest.mark.parametrize("n,h,r", GRIDS)
@pytest.mark.parametrize("pot", POTS, ids=lambda p: p.family)
def test_operator_matches_oracle(n, h, r, pot):
    g = Grid(n, h, r)
    rng = np.random.default_rng(3)
    vals = rng.standard_normal((2,) + g.shape)
    op = K.InteriorOperator(g, vals, pot)
    x = op.gather(vals)
    e_or, g_or = edge_energy_and_grad(vals, g.mask, g.h, pot)
    assert op.energy(x) == pytest.approx(e_or, rel=1e-13)
    assert np.abs(op.gradient(x)[0] - op.gather(g_or)).max() \
        <= 1e-13 * np.abs(g_or).max()
    assert np.array_equal(op.scatter(vals, op.gather(vals)), vals)


@pytest.mark.parametrize("n,h,r", GRIDS)
@pytest.mark.parametrize("pot", POTS, ids=lambda p: p.family)
def test_full_field_energy_pins_its_own_ring(n, h, r, pot):
    # the shell competitor of a field with non-constant boundary modulus
    # has other boundary values than the field: the full-field entry points
    # must pin the competitor's ring, not the one an operator was built on
    g = Grid(n, h, r)
    rng = np.random.default_rng(6)
    vals = rng.standard_normal((2,) + g.shape)
    op = K.InteriorOperator(g, vals, pot)
    v = build_shell(vals, pot.zero, 0.5)
    ring = g.mask == BOUNDARY
    assert not np.array_equal(v[:, ring], vals[:, ring])
    e_or, g_or = edge_energy_and_grad(v, g.mask, g.h, pot)
    assert K.energy_only(g, v, pot) == pytest.approx(e_or, rel=1e-13)
    e_fg, g_fg = K.energy_and_grad(g, v, pot)
    assert e_fg == K.energy_only(g, v, pot)
    assert np.abs(g_fg - g_or).max() <= 1e-13 * np.abs(g_or).max()
    # an operator pinned to the other ring gives another energy
    assert op.energy(op.gather(v)) != pytest.approx(e_or, rel=1e-6)


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
    e_x = edge_energy_and_grad(vals, g.mask, g.h, pot)[0]
    for t in rng.uniform(1e-4, 0.5, 5):
        de, trial, w_t = decrement(t)
        e_t = edge_energy_and_grad(op.scatter(vals, x - t * direction),
                                   g.mask, g.h, pot)[0]
        assert abs(de - (e_t - e_x)) <= 1e-12 * max(1.0, abs(e_x))
        assert np.array_equal(trial, x - t * direction)
        assert np.array_equal(w_t, pot.value_field(trial))


def gathered_energy(op, x):
    """The edge sum with both ends of every edge gathered from the
    buffer, the interior ends of the +axis edges by an identity take."""
    buf = op.pinned(x)
    every = np.arange(op.n_int)
    e = 0.0
    for a, b in op.edges():
        a = every if isinstance(a, slice) else a
        d = np.take(buf, b, axis=1) - np.take(buf, a, axis=1)
        e += 0.5 * float(np.sum(d * d)) / op.h2
    e += float(np.sum(op.pot.value_field(x)))
    return e * op.cell


@pytest.mark.parametrize("n,h,r", GRIDS)
@pytest.mark.parametrize("pot", POTS, ids=lambda p: p.family)
def test_energy_reads_the_interior_ends_as_x(n, h, r, pot):
    # reading x in place of an identity gather keeps the energy's bits,
    # for a gathered x and for a strided view, after pinning another ring
    g = Grid(n, h, r)
    rng = np.random.default_rng(8)
    vals = rng.standard_normal((2,) + g.shape)
    op = K.InteriorOperator(g, vals, pot)
    x = op.gather(vals)
    want = gathered_energy(op, x)
    assert op.energy(x).hex() == want.hex()
    ring = rng.standard_normal((2, g.stencil[1].size))
    nodes = np.concatenate([x, ring], axis=1)
    op.pin(ring)
    want = gathered_energy(op, x)
    assert op.energy(nodes[:, :op.n_int]).hex() == want.hex()


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


def test_line_buffers_wait_for_the_first_line_call():
    # the energy and the gradient read neither of line()'s buffers, so an
    # operator that only evaluates them never allocates one, and the
    # energy alone allocates no buffer of the Laplacian either
    g = Grid(3, 0.2, 1.2)
    pot = power([0.0, 0.0], 4)
    vals = np.random.default_rng(5).standard_normal((2,) + g.shape)
    op = K.InteriorOperator(g, vals, pot)
    x = op.gather(vals)
    op.energy(x)
    assert op._tmp is None
    grad, grad_d = op.gradient(x)
    assert op._zero is None and op._ag is None
    w = pot.value_field(x)
    ag = op.line(x, grad, grad_d, w)[1]
    assert ag.shape == x.shape and ag.flags.c_contiguous
    assert op.line(x, grad, grad_d, w)[1] is ag


@pytest.mark.parametrize("n,h,r", GRIDS)
def test_edges_are_the_mask_edges(n, h, r):
    # every cube edge with an interior endpoint, each exactly once, as
    # (lower, upper) flat cube indices, against a mask-based enumeration
    g = Grid(n, h, r)
    interior, ring, _ = g.stencil
    op = K.InteriorOperator(g, np.zeros((1,) + g.shape), power([0.0], 4))
    flat = np.concatenate([interior, ring])
    seen = [(int(a), int(b)) for pa, pb in op.edges()
            for a, b in zip(flat[pa], flat[pb])]
    index = np.arange(g.mask.size).reshape(g.shape)
    expected = set()
    for ax in range(n):
        lo, hi = edge_slices(n, ax)
        inc = (g.mask[lo] == INTERIOR) | (g.mask[hi] == INTERIOR)
        expected |= set(zip(index[lo][inc].tolist(), index[hi][inc].tolist()))
    assert len(seen) == len(set(seen))
    assert set(seen) == expected


@pytest.mark.parametrize("n,h,r", [(2, 0.1, 2.0), (3, 0.2, 1.2)])
def test_lowest_mode_is_the_first_sine_of_the_box(n, h, r):
    # the box's faces are the cube's, at +-a with a the last axis value, so
    # its lowest mode is prod cos(pi x / (2 a)) at the interior nodes in
    # gather order
    g = Grid(n, h, r)
    phi = K.lowest_mode(g)
    coords = g.coords.reshape(n, -1)[:, g.stencil[0]]
    ref = np.prod(np.cos(0.5 * np.pi * coords / g.axis[-1]), axis=0)
    assert np.allclose(phi, ref, rtol=0, atol=1e-14)
    assert phi.min() > 0.0


def multigrid(n, h, r, shift=0.0, m=2):
    g = Grid(n, h, r)
    op = K.InteriorOperator(g, np.zeros((m,) + g.shape), quadratic([0.0] * m))
    return g, op, K.Multigrid(op, shift)


@pytest.mark.parametrize("n,h,r", [(2, 0.1, 1.5), (2, 0.1, 4.0),
                                   (3, 0.2, 1.2), (3, 0.2, 4.0)])
def test_multigrid_is_symmetric_and_positive(n, h, r):
    # <y, C x> = <x, C y> to rounding and <x, C x> > 0 on random vectors,
    # with and without a shift, on grids with one level and with several
    for shift in (0.0, 0.627):
        g, op, C = multigrid(n, h, r, shift)
        rng = np.random.default_rng(7)
        for _ in range(3):
            x, y = rng.standard_normal((2, 2, op.n_int))
            cx, cy = C(x), C(y)
            assert cx.flags.c_contiguous and cx.shape == x.shape
            a, b = K.dot(y, cx), K.dot(x, cy)
            assert abs(a - b) <= 1e-12 * max(abs(a), abs(b))
            assert K.dot(x, cx) > 0.0
        assert np.array_equal(C(x), cx)
    assert len(C._levels) > 1 or op.n_int <= K._COARSEST


@pytest.mark.parametrize("n,h,r", [(2, 0.05, 3.0), (3, 0.2, 4.0)])
def test_one_v_cycle_contracts_the_error_in_the_a_norm(n, h, r):
    # e <- e - C A e shrinks ||e||_A = <e, A e>^(1/2) on random errors, with
    # the shift on A's diagonal too
    shift = 0.5
    g, op, C = multigrid(n, h, r, shift)

    def a(e):
        return op.gradient(e)[1] + g.cell * shift * e

    rng = np.random.default_rng(11)
    for _ in range(3):
        e = rng.standard_normal((2, op.n_int))
        after = e - C(a(e))
        ratio = np.sqrt(K.dot(after, a(after)) / K.dot(e, a(e)))
        assert ratio < 0.5, ratio


def test_multigrid_leaves_the_line_product_alone():
    # the minimizer reads line()'s A g after applying C, so C works in the
    # operator's scratch buffers but never in the one that holds A g
    g, op, C = multigrid(3, 0.2, 4.0, 0.3)
    rng = np.random.default_rng(3)
    x, d, y = rng.standard_normal((3, 2, op.n_int))
    grad, grad_d = op.gradient(x)
    ag = op.line(x, d, grad_d, op.pot.value_field(x))[1]
    want = ag.copy()
    C(y)
    op.gradient(y)
    C(grad)
    assert np.array_equal(ag, want)
    assert not any(np.shares_memory(ag, b) for b in op.work())


def test_multigrid_makes_no_blas_call(monkeypatch):
    # an application is np.take, slices, ufuncs and one einsum: matmul,
    # dot and every np.linalg routine raise if it reaches them
    g, op, C = multigrid(3, 0.2, 4.0)
    x = np.random.default_rng(1).standard_normal((2, op.n_int))
    want = C(x)

    def refuse(*args, **kwargs):
        raise AssertionError("BLAS call in the preconditioner")

    for name in ("matmul", "dot", "vdot", "inner", "tensordot"):
        monkeypatch.setattr(np, name, refuse)
    for name in dir(np.linalg):
        if callable(getattr(np.linalg, name)) and not name.startswith("_"):
            monkeypatch.setattr(np.linalg, name, refuse)
    assert np.array_equal(C(x), want)


def test_multigrid_builds_and_runs_lean():
    # the levels, their transfers and the coarsest inverse stay below the
    # box transform's 1.2 MB once built, and an application allocates
    # little beyond the C g it returns: level 0 works in the operator's
    # scratch buffers, made before the measurement, and in a half-size
    # scratch array of C's own, counted as live
    g = Grid(3, 0.2, 4.0)
    op = K.InteriorOperator(g, np.zeros((2,) + g.shape), quadratic([0.0] * 2))
    op.work()
    x = np.random.default_rng(2).standard_normal((2, op.n_int))
    tracemalloc.start()
    try:
        C = K.Multigrid(op, 0.3)
        C(x)
        live = tracemalloc.get_traced_memory()[0] - x.nbytes
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        C(x)
        extra = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert live <= 1.2 * 2 ** 20, f"live {live / 2 ** 20:.2f} MB"
    assert extra <= x.nbytes + 64 * 2 ** 10, f"extra {extra / 2 ** 10:.0f} kB"


@pytest.mark.parametrize("h", [0.2, 0.1, 0.05])
def test_power_iterations_stay_flat_under_refinement(h):
    # 2D power-4 on B_8: the ball-shaped C keeps the count at most 21 at
    # every h (27, 46 and 53 with the box's sine transform; 14 with the
    # exact inverse of the shifted ball Laplacian)
    g = Grid(2, h, 8.0)
    pot = power([0.0, 0.0], 4)
    _, rep = minimize(initial_field(g, pot, angular(pot, 0.6)), pot,
                      tol=1e-6)
    assert rep.converged and rep.iterations <= 21, rep.iterations
