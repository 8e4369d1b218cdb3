"""The analysis passes that read only a ball, a sub-cube or a batch give the
bits of the whole-cube, one-call-per-radius passes they replace.

Each reference below is the earlier implementation, kept here as the
oracle: the whole-cube flat-gather interpolation, the whole-cube Pohozaev
balance and the one-call-per-row sphere Holder search."""

import numpy as np
import pytest

from conftest import random_interior_field
from vacmin import discs
from vacmin.boundary import angular, initial_field
from vacmin.field import (Grid, VectorField, centred, energy_density,
                          interpolate, sample_sphere, sphere_area,
                          sphere_points)
from vacmin.minimizer import minimize
from vacmin.monotonicity import pohozaev_balance, stress_tensor
from vacmin.potentials import power, quadratic


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


# ---------------------------------------------------------------------------
# references


def whole_cube_interpolate(grid, stack, pts):
    """Multilinear interpolation of a whole-cube stack, one flat gather per
    corner, weights multiplied out per corner."""
    pts = np.asarray(pts, dtype=float)
    n = grid.n
    size = grid.axis.size
    t = (pts - grid.axis[0]) / grid.h
    i0 = np.floor(t).astype(np.int64)
    i0 = np.clip(i0, 0, size - 2)
    frac = t - i0
    strides = [size ** (n - 1 - ax) for ax in range(n)]
    base = i0 @ np.array(strides, dtype=np.int64)
    lead = stack.shape[:-n]
    flat = stack.reshape(lead + (-1,))
    out = np.zeros(lead + (pts.shape[0],))
    for corner in range(2 ** n):
        offset, w = 0, None
        for ax in range(n):
            bit = (corner >> ax) & 1
            offset += bit * strides[ax]
            f = frac[:, ax] if bit else 1.0 - frac[:, ax]
            w = f if w is None else w * f
        out += np.take(flat, base + offset, axis=-1) * w
    return out


def whole_cube_pohozaev(u, pot, R, K=1024):
    g = u.grid
    T = stress_tensor(u, pot)
    trace = np.einsum("ii...->...", T.values)
    nq = min(256, max(48, int(16 * R)))
    nodes, weights = np.polynomial.legendre.leggauss(nq)
    unit = sphere_points(g.n, 1.0, K)
    volume_side = 0.0
    for t, w in zip(nodes, weights):
        r_i = 0.5 * R * (t + 1.0)
        vals_i = whole_cube_interpolate(g, trace, r_i * unit)
        volume_side += 0.5 * R * w * float(vals_i.mean()) * sphere_area(g.n,
                                                                         r_i)
    pts = R * unit
    nu = pts / R
    tvals = whole_cube_interpolate(g, T.values, pts)
    nn = np.einsum("ki,ijk,kj->k", nu, tvals, nu)
    area = sphere_area(g.n, R)
    boundary_side = R * float(nn.mean()) * area
    evals = whole_cube_interpolate(g, T.density, pts)
    gap = boundary_side + R * float(evals.mean()) * area
    return volume_side, boundary_side, gap


def _row_cosines(row, cols):
    """row . cols[:, j] for every column j, summed coordinate by
    coordinate as (a0*b0 + a1*b1) + a2*b2."""
    cos = row[0] * cols[0]
    for k in range(1, len(row)):
        cos = cos + row[k] * cols[k]
    return cos


def per_row_holder(points, values, radius, alpha=1.0, max_dist=1.0):
    """The sphere Holder search with one cosine call per row and its
    window, the windows packed into one buffer."""
    unit = points / radius
    order = np.argsort(unit[:, -1], kind="stable")
    unit, values = unit[order], values[order]
    z = unit[:, -1]
    ends = np.searchsorted(z, z + (max_dist / radius + discs._MARGIN),
                           "right")
    rows = np.flatnonzero(ends > np.arange(1, len(z) + 1))
    if not rows.size:
        return 0.0
    width = ends[rows] - rows - 1
    cols = unit.T.copy()
    cos = np.empty(discs._SWEEP_ROWS * len(z))
    step = len(cos) // int(width.max())
    near = discs._threshold(radius, max_dist) - discs._BAND
    best = 0.0
    for r0 in range(0, len(rows), step):
        block, w = rows[r0:r0 + step], width[r0:r0 + step]
        at = np.r_[0, np.cumsum(w)]
        for p, a, b in zip(block, at[:-1], at[1:]):
            cos[a:b] = _row_cosines(unit[p], cols[:, p + 1:ends[p]])
        idx = np.flatnonzero(cos[:at[-1]] >= near)
        k = np.searchsorted(at, idx, "right") - 1
        diff = np.abs(values[block[k]] - values[block[k] + 1 + idx - at[k]])
        moved = diff != 0.0
        dist = discs._arc(cos, idx[moved], radius)
        sel = (dist > 1e-12) & (dist <= max_dist)
        if sel.any():
            best = max(best, float((diff[moved][sel] / dist[sel] ** alpha)
                                   .max()))
    return best


# ---------------------------------------------------------------------------
# fields


def _smooth_field(grid, m, seed):
    """A smooth field with nonzero values and gradients out to the cube
    faces, so sub-cube faces would show if they were read."""
    r = np.random.default_rng(seed)
    x = grid.coords
    vals = []
    for _ in range(m):
        k = r.uniform(0.3, 1.5, grid.n)
        vals.append(np.cos(np.tensordot(k, x, axes=1) + r.uniform(0, 6))
                    * (0.5 + 0.1 * x[0]))
    return VectorField(grid, np.array(vals))


GRIDS = [Grid(2, 0.1, 2.0), Grid(2, 0.15, 1.7), Grid(3, 0.2, 1.6),
         Grid(3, 0.25, 2.1)]
GRID_IDS = ["2d-h0.1", "2d-h0.15", "3d-h0.2", "3d-h0.25"]


def _radii(g):
    """Small radii, radii on and off multiples of h, and the largest ones
    the call allows, whose sub-cube reaches to a node of the cube face."""
    top = g.r_max - g.h
    return sorted({0.3 * g.h, g.h, 2.5 * g.h, 0.5 * g.r_max, 5 * g.h,
                   top - 0.5 * g.h, top - 1e-9, top})


# ---------------------------------------------------------------------------
# interpolation


@pytest.mark.parametrize("g", GRIDS, ids=GRID_IDS)
@pytest.mark.parametrize("lead", [(), (3,)])
def test_interpolate_reads_a_centred_sub_cube(g, lead):
    r = np.random.default_rng(3 * g.axis.size)
    stack = r.standard_normal(lead + g.shape)
    top = (g.axis.size - 1) // 2
    for half in (1, 3, top - 1, top):
        part = stack[(Ellipsis,) + centred(g, half)]
        # points anywhere in the sub-cube's cells, up to its faces: only
        # the sub-cube's edge cells reach its outer nodes
        edge = g.axis[top + half] - 1e-9 * g.h
        pts = r.uniform(-edge, edge, (200, g.n))
        pts[:g.n] = np.eye(g.n) * edge
        pts[g.n:2 * g.n] = -np.eye(g.n) * edge
        pts[2 * g.n] = edge
        pts[2 * g.n + 1] = -edge
        got = interpolate(g, part, pts)
        assert np.array_equal(_bits(got),
                              _bits(whole_cube_interpolate(g, stack, pts)))
    # a point past the sub-cube's cells is refused, not read from elsewhere
    part = stack[(Ellipsis,) + centred(g, 1)]
    for x in (g.axis[top + 1] + 0.5 * g.h, g.axis[top - 1] - 0.5 * g.h):
        with pytest.raises(ValueError, match="sub-cube"):
            interpolate(g, part, np.full((1, g.n), x))


@pytest.mark.parametrize("g", GRIDS, ids=GRID_IDS)
def test_interpolate_refuses_a_stack_off_the_grid_frame(g):
    # a stack that is not the cube, nor a cube centred in it on the grid's
    # nodes, would be read in a shifted frame
    size = g.axis.size
    pts = np.zeros((1, g.n))
    for shape in [(size + 2,) * g.n, (size - 1,) * g.n,
                  (size,) * (g.n - 1) + (size - 2,),
                  (size - 2,) * (g.n - 1) + (size,)]:
        with pytest.raises(ValueError, match="centred"):
            interpolate(g, np.zeros(shape), pts)
    # the grid's own cube and an odd centred cube are read
    assert interpolate(g, np.ones(g.shape), pts)[0] == 1.0
    assert interpolate(g, np.ones((size - 2,) * g.n), pts)[0] == 1.0


def test_interpolate_leaves_its_points_alone():
    # points whose transpose is C-ordered, as annulus_field passes them,
    # are read, not overwritten
    g = GRIDS[2]
    r = np.random.default_rng(1)
    pts = np.ascontiguousarray(r.uniform(-1.0, 1.0, (g.n, 50))).T
    kept = pts.copy()
    interpolate(g, r.standard_normal(g.shape), pts)
    assert np.array_equal(pts, kept)


# ---------------------------------------------------------------------------
# Holder constants


@pytest.fixture(scope="module")
def experiment_2d_density():
    """The energy density of the 2D quadratic R = 6 h = 0.1 solve of the
    benchmark's experiment-2d config."""
    g = Grid(2, 0.1, 6.0)
    pot = quadratic([0.0, 0.0], monot_radius=2.0)
    u0 = initial_field(g, pot, angular(pot, 0.6, windings=1))
    u, rep = minimize(u0, pot, tol=1e-6, max_iter=50_000)
    assert rep.converged
    return energy_density(u, pot)


@pytest.mark.parametrize("R", [2.0, 2.25, 2.9])
def test_sphere_holder_matches_per_row_search_on_2d_slices(
        experiment_2d_density, R):
    # the experiment-2d coverings at the pipeline's cap, and wider caps,
    # where mirrored samples share a y and every row's window is its twin
    e, K = experiment_2d_density, 512
    s_r, _ = discs.select_good_radius(e, R, K=K)
    pts, vals = sample_sphere(e, s_r, K)
    cap = discs._holder_cap(vals, 1.0, 1.0, discs.holder_constant(e, 1.0))
    assert cap < 1e-4
    for max_dist in (cap, 1e-3, 0.05, 1.0):
        for alpha in (1.0, 0.5):
            got = discs.sphere_holder_constant(pts, vals, s_r, alpha, max_dist)
            assert _bits(got) == _bits(per_row_holder(pts, vals, s_r, alpha,
                                                      max_dist))
    assert discs.sphere_holder_constant(pts, vals, s_r, 1.0, 0.05) > 0.0


@pytest.mark.parametrize("ratio", [0.067, 0.33, 0.67])
def test_sphere_holder_matches_per_row_search_in_3d(ratio):
    radius, K = 1.8, 4096
    r = np.random.default_rng(int(100 * ratio))
    pts = sphere_points(3, radius, K)
    vals = np.sin(3.0 * pts[:, 0]) + r.uniform(0.0, 1e-3, K)
    got = discs.sphere_holder_constant(pts, vals, radius, 1.0, ratio * radius)
    assert got > 0.0
    assert _bits(got) == _bits(per_row_holder(pts, vals, radius, 1.0,
                                              ratio * radius))


@pytest.mark.parametrize("n,K", [(2, 64), (2, 513), (3, 200)])
def test_sphere_holder_blocks_form_each_window_pair_once(monkeypatch, n, K):
    # every window pair is formed, none twice and no sample with itself,
    # whether windows hold the samples' twins (2D) or not
    radius = 1.3
    unit = sphere_points(n, radius, K) / radius
    index = {row.tobytes(): i for i, row in enumerate(unit)}
    formed = []
    offset_cosines = discs._offset_cosines

    def recorded(cols, k, buf, term):
        c = [index[col.tobytes()] for col in cols.T]
        formed.extend(zip(c[:-k], c[k:]))
        return offset_cosines(cols, k, buf, term)

    monkeypatch.setattr(discs, "_offset_cosines", recorded)
    vals = np.arange(K, dtype=float)
    for max_dist in (1e-6, 0.2, 1.0):
        formed.clear()
        discs.sphere_holder_constant(unit * radius, vals, radius, 1.0,
                                     max_dist)
        pairs = {tuple(sorted(p)) for p in formed}
        assert len(pairs) == len(formed)
        assert all(i != j for i, j in formed)
        # the window pairs: z within theta + margin of each other
        z = unit[:, -1]
        theta = max_dist / radius + discs._MARGIN
        order = np.argsort(z, kind="stable")
        rank = np.empty(K, dtype=int)
        rank[order] = np.arange(K)
        need = {tuple(sorted((i, j))) for i in range(K) for j in range(K)
                if rank[i] < rank[j] and z[j] <= z[i] + theta}
        assert need <= pairs


# ---------------------------------------------------------------------------
# Pohozaev


@pytest.mark.parametrize("g", GRIDS, ids=GRID_IDS)
def test_pohozaev_matches_whole_cube_balance(g):
    pot = power([0.0, 0.1], 4)
    fields = [_smooth_field(g, 2, g.axis.size),
              random_interior_field(g, 2, g.axis.size, scale=0.5)]
    for u in fields:
        for R in _radii(g):
            got = pohozaev_balance(u, pot, R, K=64)
            ref = whole_cube_pohozaev(u, pot, R, K=64)
            assert np.array_equal(_bits(got), _bits(ref)), R
