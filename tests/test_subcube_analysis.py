"""The analysis passes that read only a ball, a sub-cube, the interior and
ring nodes or a batch give the bits of the whole-cube, one-call-per-radius
passes they replace.

Each reference below is the earlier implementation, kept here as the
oracle: the whole-cube flat-gather interpolation, the whole-cube Pohozaev
balance, the one-call-per-row sphere Holder search, whole-cube ball sums,
the whole-cube comparison bound and the competitor suite built on the
whole cube."""

import math

import numpy as np
import pytest

from conftest import random_interior_field
from vacmin import competitor, discs, growth
from vacmin._kernels import InteriorOperator
from vacmin.boundary import angular, initial_field, random_smooth
from vacmin.competitor import (build_min_truncation, build_shell,
                               build_truncation, interior_and_ring,
                               modulus_gradient_ratio,
                               select_truncation_level, standard_suite)
from vacmin.field import (BOUNDARY, EXTERIOR, INTERIOR, Grid, ScalarField,
                          VectorField, ball_integrals, ball_weights, centred,
                          energy_density, integrate_ball, interpolate,
                          sample_sphere, sphere_area, sphere_points, take)
from vacmin.growth import annulus_field, comparison_bound
from vacmin.minimizer import discrete_energy, minimize
from vacmin.monotonicity import pohozaev_balance, stress_tensor
from vacmin.potentials import power, quadratic


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def cube_nodes(g):
    """The flat indices of every cube node, in the cube's shape."""
    return np.arange(g.mask.size).reshape(g.shape)


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
        dist = discs._arc(cos[idx[moved]], radius)
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
        part = centred(stack, half, g.n)
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
    part = centred(stack, 1, g.n)
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
    dots = discs._dots

    def recorded(a, b, out=None, term=None):
        # the Holder search pairs column i of a with column i of b
        formed.extend(zip([index[col.tobytes()] for col in a.T],
                          [index[col.tobytes()] for col in b.T]))
        return dots(a, b, out, term)

    monkeypatch.setattr(discs, "_dots", recorded)
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
    # at K = 1500 the 48 Gauss-Legendre radii take five interpolation
    # calls, the last one short; the reference takes one per radius
    pot = power([0.0, 0.1], 4)
    fields = [_smooth_field(g, 2, g.axis.size),
              random_interior_field(g, 2, g.axis.size, scale=0.5)]
    for u in fields:
        for R in _radii(g):
            for K in (64, 1500):
                got = pohozaev_balance(u, pot, R, K=K)
                ref = whole_cube_pohozaev(u, pot, R, K=K)
                assert np.array_equal(_bits(got), _bits(ref)), (R, K)


# ---------------------------------------------------------------------------
# ball integrals on B_R's sub-cube


def whole_cube_weights(g, R):
    """The midpoint ball weights on every cube node."""
    return np.clip((R - g.radius) / g.h + 0.5, 0.0, 1.0)


@pytest.mark.parametrize("g", GRIDS, ids=GRID_IDS)
def test_ball_integral_matches_whole_cube_sum(g):
    vals = [_smooth_field(g, 1, 7).values[0] ** 2,
            random_interior_field(g, 1, 8, scale=2.0).values[0]]
    small = [0.3 * g.h, 1.5 * g.h]                   # R below 2h
    ascending = small + [0.5 * g.r_max, g.r_max - g.h, g.r_max]
    descending = ascending[::-1]
    repeated = [0.5 * g.r_max, 0.5 * g.r_max, g.r_max, g.r_max, g.h]
    for radii in (ascending, descending, repeated):
        got = ball_integrals(g, vals, radii)
        assert got.shape == (len(vals), len(radii))
        for s, row in zip(vals, got):
            for R, x in zip(radii, row):
                want = float(np.sum(s * whole_cube_weights(g, R)) * g.cell)
                assert _bits(x) == _bits(want), R
                assert _bits(integrate_ball(ScalarField(g, s), R)) \
                    == _bits(want)


@pytest.mark.parametrize("g", GRIDS, ids=GRID_IDS)
def test_ball_integrals_read_a_sub_cube_stack(g):
    # a stack that holds only the block of the largest radius's weights
    # gives the bits of its whole-cube arrays, with repeated radii and R
    # below 2h
    vals = [_smooth_field(g, 1, 9).values[0],
            random_interior_field(g, 1, 10, scale=2.0).values[0]]
    top = 0.5 * g.r_max
    radii = [top, 0.3 * g.h, top, 1.5 * g.h, 0.25 * g.r_max]
    part = [centred(s, math.ceil(top / g.h) + 1, g.n).copy() for s in vals]
    got = ball_integrals(g, part, radii)
    want = ball_integrals(g, vals, radii)
    assert np.array_equal(_bits(got), _bits(want))
    assert [_bits(integrate_ball(ScalarField(g, s), R)) for s in vals
            for R in radii] == list(_bits(want.ravel()))


@pytest.mark.parametrize("g", GRIDS, ids=GRID_IDS)
def test_ball_weights_hold_every_nonzero_weight(g):
    for R in _radii(g) + [g.r_max]:
        w = ball_weights(g, R)
        full = whole_cube_weights(g, R)
        inner = np.zeros(g.shape, dtype=bool)
        centred(inner, math.ceil(R / g.h) + 1, g.n)[...] = True
        assert np.array_equal(w, full[inner].reshape(w.shape))
        assert not full[~inner].any()


# ---------------------------------------------------------------------------
# the comparison bound on its sub-cube


@pytest.mark.parametrize("g", GRIDS, ids=GRID_IDS)
def test_comparison_bound_matches_whole_cube_bound(g):
    pot = power([0.0, 0.1], 4)
    whole = cube_nodes(g)
    for u in (_smooth_field(g, 2, 5),
              random_interior_field(g, 2, 6, scale=0.5)):
        for R in (1.0 + g.h, 0.5 * (1.0 + g.h + g.r_max), g.r_max - 2 * g.h,
                  g.r_max):
            if R < 1.0 + g.h:
                continue
            v = u.with_values(annulus_field(u, pot, R, whole))
            e = energy_density(v, pot).values
            want = float(np.sum(e * whole_cube_weights(g, R)) * g.cell)
            assert _bits(comparison_bound(u, pot, R)) == _bits(want), R


# ---------------------------------------------------------------------------
# the competitor suite on the interior and ring nodes


def whole_cube_suite(u, pot, mag):
    """The suite's reports built on the whole cube: each competitor by the
    public constructions applied to u.values, its energy by discrete_energy
    of the whole-cube field, its boundary deviation over the BOUNDARY mask,
    and the min-truncation level from u's interior and ring nodes."""
    g = u.grid
    eu = discrete_energy(u, pot)
    ring = g.mask == BOUNDARY

    def report(v, tag, params):
        ev = discrete_energy(u.with_values(v), pot)
        dev = float(np.sqrt(np.sum((u.values - v) ** 2, axis=0))[ring].max())
        return {"tag": tag, "energy_u": eu, "energy_competitor": ev,
                "difference": ev - eu, "boundary_deviation": dev,
                "admissible": dev <= 1e-12, "params": params}

    s_r = g.r_max - 2 * g.h
    out = [report(annulus_field(u, pot, s_r, cube_nodes(g)),
                  "annulus", {"s_r": s_r})]
    trunc = build_truncation(u.values, pot.zero, mag)
    op = InteriorOperator(g, u.values, pot)
    nodes = interior_and_ring(g)
    ratio = modulus_gradient_ratio(op, take(u.values, nodes),
                                   take(trunc, nodes), pot.zero)
    out.append(report(trunc, "truncation", {"r": mag, "grad_ratio": ratio}))
    out.append(report(build_shell(u.values, pot.zero, mag),
                      "constant-r-shell", {"r": mag}))
    if u.m == 1:
        zero = float(pot.zero[0])
        bsup = float(u.values[0][ring].max())
        umax = float(u.values[0][g.mask != EXTERIOR].max())
        level = umax if umax <= bsup else select_truncation_level(
            u.values[:, g.mask != EXTERIOR], zero, bsup - zero, pot)
        out.append(report(build_min_truncation(u.values, level),
                          "min-truncation", {"level": level}))
    return out


def _same(a, b):
    """Equal, with floats compared by their bits."""
    if isinstance(a, float) or isinstance(b, float):
        return float(a).hex() == float(b).hex()
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a == b


def _suite_field(g, pot, case):
    """A field with the boundary data of the case and the ramp inside it,
    perturbed for m = 2: angular data (constant boundary modulus, all
    admissible), random data (the shell is not admissible), and for m = 1
    a bump above the boundary sup, which makes the level a scanned one."""
    r = np.random.default_rng(g.axis.size)
    if case == "angular":
        u = initial_field(g, pot, angular(pot, 0.6))
    else:
        u = initial_field(g, pot, random_smooth(pot, 0.6, seed=2))
    vals = u.values.copy()
    inside = g.mask == INTERIOR
    if pot.m == 2:
        vals[:, inside] += 0.05 * r.standard_normal((2, int(inside.sum())))
    if case == "bump":
        vals[:, inside] += 0.8 * np.exp(-g.radius[inside] ** 2)
    return u.with_values(vals)


SUITE_CASES = [(2, "angular"), (2, "random"), (1, "random"), (1, "bump")]


@pytest.mark.parametrize("g", [GRIDS[0], GRIDS[3]], ids=["2d", "3d"])
@pytest.mark.parametrize("m,case", SUITE_CASES,
                         ids=[f"m{m}-{c}" for m, c in SUITE_CASES])
def test_suite_matches_whole_cube_reference(g, m, case):
    pot = power([0.0] * m, 4)
    u = _suite_field(g, pot, case)
    got = [r.to_dict() for r in standard_suite(u, pot, 0.6)]
    want = whole_cube_suite(u, pot, 0.6)
    assert [r["tag"] for r in got] == [r["tag"] for r in want]
    notes = [r.pop("note") for r in got]
    for r, w in zip(got, want):
        assert _same(r, w), r["tag"]
    assert got[2]["admissible"] == (case == "angular")
    assert bool(notes[2]) != got[2]["admissible"]
    if m == 1:
        assert bool(notes[3]) == (case != "bump")


def test_suite_and_bound_build_no_whole_cube_field(monkeypatch):
    # the suite builds its annulus on the interior and ring nodes, the
    # bound on a sub-cube, and neither builds a field object at all
    g = Grid(3, 0.2, 2.4)
    pot = power([0.0, 0.0], 4)
    u = _suite_field(g, pot, "angular")
    fields, annuli = [], []
    init, real = VectorField.__init__, growth.annulus_field

    def recording(self, grid, values):
        fields.append(np.shape(values))
        init(self, grid, values)

    def annulus(*args):
        v = real(*args)
        annuli.append(v.shape)
        return v

    monkeypatch.setattr(VectorField, "__init__", recording)
    monkeypatch.setattr(competitor, "annulus_field", annulus)
    standard_suite(u, pot, 0.6)
    assert annuli == [(2, interior_and_ring(g).size)]
    R = g.r_max - 3 * g.h
    side = 2 * (math.ceil(R / g.h) + 2) + 1
    monkeypatch.setattr(growth, "annulus_field", annulus)
    comparison_bound(u, pot, R)
    assert annuli[1] == (2,) + (side,) * g.n
    assert side < g.axis.size
    assert fields == []
