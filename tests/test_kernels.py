"""The interior-only operator against the full-cube edge-sum oracle."""

import numpy as np
import pytest

from vacmin import _kernels as K
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


@pytest.mark.parametrize("size", [5, 43, 124])
def test_sine_matrix_is_its_own_inverse(size):
    S = K.sine_matrix(size)
    assert np.array_equal(S, S.T)
    assert np.abs(S @ S - np.eye(size)).max() <= 1e-13


@pytest.mark.parametrize("n,h,r", [(2, 0.1, 1.5), (2, 0.05, 3.0),
                                   (3, 0.2, 1.2), (3, 0.2, 4.0)])
def test_dirichlet_inverse_matches_scipy_dst(n, h, r):
    # reference: extend by zero to the inner box, orthonormal DST-I, divide
    # by h^n times (the eigenvalues of -lap_h + shift), DST-I again, restrict
    from scipy.fft import dstn
    g = Grid(n, h, r)
    interior = g.stencil[0]
    size = g.axis.size - 2
    k = np.arange(1, size + 1)
    lam = 4.0 / (h * h) * np.sin(0.5 * np.pi * k / (size + 1)) ** 2
    eig = sum(lam.reshape((-1,) + (1,) * (n - 1 - ax)) for ax in range(n))
    x = np.random.default_rng(7).standard_normal((2, interior.size))
    for shift in (0.0, 0.627, 40.0):
        C = K.DirichletInverse(g, shift)
        ref = np.empty_like(x)
        for c in range(2):
            box = np.zeros(g.shape)
            box.reshape(-1)[interior] = x[c]
            box = box[(slice(1, -1),) * n]
            box = dstn(dstn(box, type=1, norm="ortho")
                       / (g.cell * (eig + shift)), type=1, norm="ortho")
            full = np.zeros(g.shape)
            full[(slice(1, -1),) * n] = box
            ref[c] = full.reshape(-1)[interior]
        got = C(x)
        assert got.dtype == np.float64 and got.flags.c_contiguous
        # the transform runs in float32
        assert np.abs(got - ref).max() <= 1e-5 * np.abs(ref).max()
        assert np.array_equal(C(x), got)
        # scaled by a power of two on the way in, so float32's range is no
        # limit
        for k in (-300, 300):
            assert np.array_equal(C(x * 2.0 ** k), got * 2.0 ** k)


@pytest.mark.parametrize("n,h,r", [(2, 0.1, 2.0), (3, 0.2, 1.2)])
def test_lowest_mode_is_the_first_sine_of_the_box(n, h, r):
    # the box's faces are the cube's, at +-a with a the last axis value, so
    # its lowest mode is prod cos(pi x / (2 a)) at the interior nodes in
    # gather order: the first row of the sine matrix along every axis
    g = Grid(n, h, r)
    phi = K.lowest_mode(g)
    coords = g.coords.reshape(n, -1)[:, g.stencil[0]]
    ref = np.prod(np.cos(0.5 * np.pi * coords / g.axis[-1]), axis=0)
    assert np.allclose(phi, ref, rtol=0, atol=1e-14)
    assert phi.min() > 0.0
    size = g.axis.size - 2
    S = K.sine_matrix(size)
    first = np.sqrt(0.5 * (size + 1)) * S[0]
    box = np.ones((size,) * n)
    for ax in range(n):
        box = box * first.reshape((-1,) + (1,) * (n - 1 - ax))
    cube = np.zeros(g.shape)
    cube[(slice(1, -1),) * n] = box
    assert np.allclose(phi, cube.reshape(-1)[g.stencil[0]], rtol=0,
                       atol=1e-14)


def test_dirichlet_inverse_inverts_the_box_laplacian():
    # on a ball that fills the inner box up to its corners, C applied to
    # A y for y vanishing near the ball's edge returns y
    g = Grid(2, 0.1, 1.5)
    pot = quadratic([0.0])
    op = K.InteriorOperator(g, np.zeros((1,) + g.shape), pot)
    rad = g.radius.reshape(-1)[g.stencil[0]]
    y = np.exp(-4.0 * rad ** 2)[None] * (rad < 1.0)
    ay = op.gradient(y)[1]
    assert np.abs(K.DirichletInverse(g)(ay) - y).max() <= 1e-5


@pytest.mark.parametrize("n,h,r", [(3, 0.2, 4.0), (2, 0.05, 8.0),
                                   (2, 0.02, 8.0)])
def test_dirichlet_inverse_gemms_stay_single_threaded(n, h, r, monkeypatch):
    # OpenBLAS threads a GEMM above 64^3 multiply-adds, and a one-row or
    # one-column product is a GEMV, which it threads from a smaller size;
    # every product C makes must stay below both, and together they must
    # be the 2n full transforms per component. A batched right operand
    # (..., k, cols) is one product per batch entry. Every operand's last
    # axis has unit stride, so no transposed view reaches BLAS
    C = K.DirichletInverse(Grid(n, h, r))
    size = C._sine.shape[0]
    calls = []
    matmul = np.matmul

    def recording(a, b, out):
        calls.append((a.shape, b.shape, a.dtype, b.dtype,
                      [x.strides[-1] // x.itemsize for x in (a, b, out)]))
        return matmul(a, b, out=out)

    monkeypatch.setattr(np, "matmul", recording)
    C(np.ones((2, C._pos.size)))
    macs = 0
    for (rows, k), (*batch, k2, cols), da, db, steps in calls:
        assert k == k2 == size and da == db == np.float32
        assert rows >= 2 and cols >= 2 and rows * k * cols <= 64 ** 3
        assert steps == [1, 1, 1]
        macs += rows * k * cols * int(np.prod(batch))
    assert macs == 2 * 2 * n * size ** (n + 1)
