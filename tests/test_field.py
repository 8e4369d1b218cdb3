"""Grid construction, stencils, quadrature, sampling and serialization."""

import hashlib
import math
import os
import tracemalloc

import numpy as np
import pytest

from conftest import sphere_integral
from vacmin import field
from vacmin._kernels import InteriorOperator
from vacmin.boundary import angular, initial_field
from vacmin.field import (BOUNDARY, INTERIOR, Grid, GridError,
                          ScalarField, VectorField, energy_density,
                          export_sphere_csv, integrate_ball, interpolate,
                          load_field, sample_sphere, save_field,
                          sphere_means, sphere_points)
from vacmin.potentials import power, quadratic


def laplacian(u: VectorField) -> np.ndarray:
    """The interior operator's Laplacian of u, -grad E_D / h^n, with u's own
    boundary values pinned; shape (m, interior nodes)."""
    g = u.grid
    op = InteriorOperator(g, u.values, quadratic(np.zeros(u.m)))
    return -op.gradient(op.gather(u.values))[1] / g.cell


def test_grid_mask_structure(small_grid):
    g = small_grid
    inter = g.mask == INTERIOR
    bound = g.mask == BOUNDARY
    assert inter.any() and bound.any()
    # boundary nodes are exterior to the ball but adjacent to interior
    assert (g.radius[bound] > g.r_max).all()
    near = np.zeros(g.shape, bool)
    for ax in range(g.n):
        near |= np.roll(inter, 1, axis=ax) | np.roll(inter, -1, axis=ax)
    assert (near[bound]).all()
    # axis coverage: h * nodes per axis >= 2 r_max
    assert g.h * g.axis.size >= 2 * g.r_max


def test_grid_validation():
    with pytest.raises(GridError):
        Grid(4, 0.1, 1.0)
    with pytest.raises(GridError):
        Grid(2, -0.1, 1.0)
    with pytest.raises(GridError):
        Grid(2, 0.5, 1.0)  # r_max < 4h


def red_first_interior(mask):
    """The flat indices of the INTERIOR nodes, those whose cube indices lie
    an even sum of steps from the centre node first, then the others, each
    class in cube order."""
    steps = np.indices(mask.shape).sum(axis=0) - mask.ndim * (mask.shape[0] // 2)
    inside = (mask == INTERIOR).ravel()
    even = steps.ravel() % 2 == 0
    return np.concatenate([np.flatnonzero(inside & even),
                           np.flatnonzero(inside & ~even)])


@pytest.mark.parametrize("n,h,r", [(2, 0.1, 2.0), (2, 0.07, 3.3),
                                   (3, 0.2, 4.0), (3, 0.15, 1.2)])
def test_grid_arrays_match_coordinate_stack_construction(n, h, r):
    # the radius is summed from broadcast axes; it, the mask, the stencil
    # and the initial field must equal the construction from the stored
    # (n, *shape) coordinate stack bit for bit
    g = Grid(n, h, r)
    coords = np.stack(np.meshgrid(*([g.axis] * n), indexing="ij"))
    assert np.array_equal(g.coords, coords)
    radius = np.sqrt(np.sum(coords ** 2, axis=0))
    assert np.array_equal(g.radius, radius)
    inside = radius <= r * (1 + 1e-12)
    near = np.zeros(g.shape, dtype=bool)
    for ax in range(n):
        near |= np.roll(inside, 1, axis=ax) | np.roll(inside, -1, axis=ax)
    mask = np.where(inside, INTERIOR, np.where(near, BOUNDARY, 0))
    assert np.array_equal(g.mask, mask)
    interior, ring, _ = g.stencil
    assert np.array_equal(interior, red_first_interior(mask))
    assert np.array_equal(ring, np.flatnonzero(mask == BOUNDARY))
    pot = power([0.1, -0.2], 4)
    fn = angular(pot, 0.6)
    a = pot.zero.reshape((-1,) + (1,) * n)
    lam = np.clip(radius - (r - 1.0), 0.0, 1.0)
    ref = a + lam * (np.asarray(fn(coords), dtype=float) - a)
    assert np.array_equal(initial_field(g, pot, fn).values, ref)


def test_stencil_matches_stacked_rows_and_builds_lean():
    g = Grid(3, 0.2, 4.0)
    tracemalloc.start()
    try:
        interior, ring, nbr = g.stencil
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    flat = g.mask.ravel()
    assert np.array_equal(interior, red_first_interior(g.mask))
    assert np.array_equal(ring, np.flatnonzero(flat == BOUNDARY))
    pos = np.full(flat.size, -1, dtype=np.intp)
    pos[interior] = np.arange(interior.size)
    pos[ring] = interior.size + np.arange(ring.size)
    strides = [g.axis.size ** (g.n - 1 - ax) for ax in range(g.n)]
    ref = np.stack([pos[interior + s] for s in strides]
                   + [pos[interior - s] for s in strides])
    assert nbr.dtype == np.intp and np.array_equal(nbr, ref)
    # 1.8 MB is kept; stacking a list of rows peaked at 4.0 MB
    assert peak <= 3.2 * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MB"


def test_laplacian_constant_and_quadratic(small_grid):
    g = small_grid
    const = VectorField.constant(g, [3.0, -1.0])
    assert np.abs(laplacian(const)).max() == 0.0
    quad = VectorField.from_function(g, lambda x: x[0] ** 2, m=1)
    assert np.abs(laplacian(quad)[0] - 2.0).max() < 1e-10


def test_laplacian_second_order():
    errs = []
    hs = [0.2, 0.1, 0.05]
    for h in hs:
        g = Grid(2, h, 1.0)
        u = VectorField.from_function(g, lambda x: np.sin(x[0]), m=1)
        ref = -np.sin(g.coordinates(g.stencil[0])[0])
        errs.append(np.abs(laplacian(u)[0] - ref).max())
    order = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert order > 1.9


def test_energy_density_examples(small_grid):
    g = small_grid
    pot = quadratic([0.0])
    u = VectorField.constant(g, [0.0])
    e = energy_density(u, pot)
    assert np.abs(e.values).max() == 0.0
    # u = exp(x1): e = exp(2 x1) up to O(h^2)
    u2 = VectorField.from_function(g, lambda x: np.exp(x[0]), m=1)
    e2 = energy_density(u2, pot)
    ref = np.exp(2 * g.coords[0])
    sel = g.mask == INTERIOR
    rel = (np.abs(e2.values - ref) / ref)[sel].max()
    assert rel < 3 * g.h ** 2
    assert (e2.values >= 0).all()


def test_energy_density_linear_field(small_grid):
    g = small_grid
    pot = quadratic([0.0])
    slope = np.array([0.7, -0.3])
    u = VectorField.from_function(
        g, lambda x: slope[0] * x[0] + slope[1] * x[1], m=1)
    e = energy_density(u, pot)
    ref = 0.5 * (slope @ slope) + pot.value_field(u.values)
    sel = g.mask == INTERIOR
    assert np.abs(e.values - ref)[sel].max() < 1e-10


def test_integrate_ball_disc_area(small_grid):
    s = ScalarField.constant(small_grid, 1.0)
    assert abs(integrate_ball(s, 1.0) - math.pi) < 2 * small_grid.h
    assert integrate_ball(ScalarField.constant(small_grid, 0.0), 1.5) == 0.0
    with pytest.raises(ValueError):
        integrate_ball(s, 5.0)


def test_integrate_ball_refinement_oracle():
    # bump field: coarse-grid ball integral converges to a 4x refined one
    def bump(x):
        r2 = x[0] ** 2 + x[1] ** 2
        return np.exp(-4.0 * r2) * (1.0 + 0.5 * x[0])

    vals = {}
    for h in (0.2, 0.05):
        g = Grid(2, h, 1.5)
        vals[h] = integrate_ball(ScalarField.from_function(g, bump), 1.2)
    assert vals[0.2] == pytest.approx(vals[0.05], abs=5e-3)


def test_integrate_ball_monotone_in_R(small_grid, rng):
    vals = rng.uniform(0.0, 1.0, small_grid.shape)
    s = ScalarField(small_grid, vals)
    radii = np.linspace(0.2, small_grid.r_max, 12)
    seq = [integrate_ball(s, float(r)) for r in radii]
    assert all(b >= a - 1e-14 for a, b in zip(seq, seq[1:]))


def test_sample_sphere_constant(small_grid):
    s = ScalarField.constant(small_grid, 2.5)
    pts, vals = sample_sphere(s, 1.0, 64)
    assert np.abs(vals - 2.5).max() < 1e-12
    assert np.abs(np.linalg.norm(pts, axis=1) - 1.0).max() < 1e-12
    # slice integral of 1 over the circle of radius R is 2 pi R exactly
    one = ScalarField.constant(small_grid, 1.0)
    assert sphere_integral(one, 1.3, 64) == pytest.approx(2 * math.pi * 1.3)


def test_sample_sphere_radial_profile(small_grid):
    s = ScalarField.from_function(
        small_grid, lambda x: np.sqrt(x[0] ** 2 + x[1] ** 2) ** 2)
    for R in (0.7, 1.2, 1.8):
        _, vals = sample_sphere(s, R, 32)
        assert np.abs(vals - R ** 2).max() < 2 * small_grid.h ** 2


def test_sample_sphere_nonnegative_and_edge(small_grid, rng):
    nonneg = ScalarField(small_grid, rng.uniform(0.0, 2.0, small_grid.shape))
    _, vals = sample_sphere(nonneg, 1.2, 64)
    assert (vals >= 0).all()  # interpolation is a convex combination
    s = ScalarField.constant(small_grid, 1.0)
    with pytest.raises(ValueError):
        sample_sphere(s, small_grid.r_max, 32)
    with pytest.raises(ValueError):
        sphere_points(2, 1.0, 4)


@pytest.mark.parametrize("R", [-1.0, 0.0, -0.0, math.nan])
def test_sample_sphere_refuses_a_radius_that_is_not_positive(small_grid, R):
    # a negative radius would sample the reflected sphere
    s = ScalarField.from_function(small_grid, lambda x: x[0])
    with pytest.raises(ValueError, match="not positive"):
        sample_sphere(s, R, 32)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("K", [1024, 4096])
def test_sphere_means_match_each_radius_own_mean(monkeypatch, n, K):
    # radii batched into interpolation calls of at most _SPHERE_BATCH
    # points, several calls and a short last one, give each radius the
    # bits of its own interpolated mean
    g = Grid(n, 0.25, 2.0)
    stack = np.random.default_rng(n).standard_normal(g.shape)
    unit = sphere_points(n, 1.0, K)
    sizes = []

    def counted(grid, s, pts):
        sizes.append(len(pts))
        return interpolate(grid, s, pts)

    monkeypatch.setattr(field, "interpolate", counted)
    short = False
    for count in (1, 4, 5, 17, 48):
        radii = np.linspace(0.05, g.r_max - g.h, count)
        sizes.clear()
        got = sphere_means(g, stack, radii, unit)
        want = [interpolate(g, stack, r * unit).mean() for r in radii]
        assert got.dtype == float and got.tolist() == want
        assert sum(sizes) == count * K
        assert max(sizes) <= field._SPHERE_BATCH
        assert sizes[:-1] == [sizes[0]] * (len(sizes) - 1)
        short |= sizes[-1] < sizes[0]
    assert short and len(sizes) > 2
    empty = sphere_means(g, stack, np.empty(0), unit)
    assert empty.dtype == float and empty.shape == (0,)


def test_fibonacci_sphere_3d():
    g = Grid(3, 0.25, 1.5)
    s = ScalarField.from_function(g, lambda x: x[2] ** 2)
    pts, vals = sample_sphere(s, 1.0, 512)
    # mean of z^2 over the unit sphere is 1/3
    assert vals.mean() == pytest.approx(1.0 / 3.0, abs=2e-2)


def test_interpolation_exact_on_linear(small_grid):
    s = ScalarField.from_function(small_grid, lambda x: 2 * x[0] - x[1] + 0.5)
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1.5, 1.5, (40, 2))
    out = interpolate(small_grid, s.values, pts)
    ref = 2 * pts[:, 0] - pts[:, 1] + 0.5
    assert np.abs(out - ref).max() < 1e-12


def fancy_index_interpolate(grid, stack, pts):
    """Multilinear interpolation with one n-array fancy index per cell
    corner: the reference the flat-gather ``interpolate`` must match bit for
    bit."""
    pts = np.asarray(pts, dtype=float)
    n = grid.n
    t = (pts - grid.axis[0]) / grid.h
    i0 = np.floor(t).astype(np.int64)
    i0 = np.clip(i0, 0, grid.axis.size - 2)
    frac = t - i0
    lead = stack.shape[:-n]
    out = np.zeros(lead + (pts.shape[0],))
    for corner in range(2 ** n):
        idx = []
        w = np.ones(pts.shape[0])
        for ax in range(n):
            bit = (corner >> ax) & 1
            idx.append(i0[:, ax] + bit)
            w = w * (frac[:, ax] if bit else 1.0 - frac[:, ax])
        out += stack[(Ellipsis,) + tuple(idx)] * w
    return out


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("lead", ["scalar", "vector", "tensor"])
def test_interpolate_matches_fancy_index_oracle(n, lead):
    g = Grid(n, 0.25, 1.5)
    r = np.random.default_rng(7 + n)
    lead_shape = {"scalar": (), "vector": (3,), "tensor": (n, n)}[lead]
    stack = r.standard_normal(lead_shape + g.shape)
    L = -g.axis[0]
    pts = r.uniform(-L, L, (500, n))
    pts[:8] = g.axis[0]           # exactly on the low faces
    pts[8:16] = g.axis[-1]        # exactly on the high faces
    out = interpolate(g, stack, pts)
    assert out.shape == lead_shape + (500,)
    assert np.array_equal(out, fancy_index_interpolate(g, stack, pts))


def test_interpolate_refuses_points_outside_the_cube():
    # the cube of this grid ends at +-2.2: a point past it lies in no cell
    # and is refused, not extrapolated from the edge cell
    g = Grid(2, 0.1, 2.0)
    for p in [(10.0, 0.0), (-5.0, 0.0), (0.0, g.axis[-1] + 1e-9),
              (g.axis[0] - 1e-9, 0.0), (np.nan, 0.0)]:
        with pytest.raises(ValueError, match="outside"):
            interpolate(g, g.radius, np.array([p]))
    # a point on the cube's faces is in its edge cell
    pts = np.array([[g.axis[-1], 0.0], [g.axis[0], g.axis[-1]]])
    mid = g.axis.size // 2
    assert interpolate(g, g.radius, pts).tolist() == [g.radius[-1, mid],
                                                      g.radius[0, -1]]


def test_fields_live_on_a_grid(small_grid):
    class Lattice:
        """A grid's n, h, axis and shape, without its mask or stencil."""
        n, h, axis, shape = (small_grid.n, small_grid.h, small_grid.axis,
                             small_grid.shape)

    with pytest.raises(TypeError):
        ScalarField(Lattice(), np.zeros(small_grid.shape))
    with pytest.raises(TypeError):
        VectorField(Lattice(), np.zeros((1,) + small_grid.shape))


def test_field_io_roundtrip(tmp_path, small_grid, rng):
    u = VectorField(small_grid, rng.standard_normal((3,) + small_grid.shape))
    path = str(tmp_path / "f.bin")
    save_field(path, u)
    v = load_field(path)
    assert v.grid == small_grid
    assert np.array_equal(v.values, u.values)


def test_sphere_csv(tmp_path, small_grid):
    s = ScalarField.constant(small_grid, 1.0)
    pts, vals = sample_sphere(s, 1.0, 16)
    p = tmp_path / "s.csv"
    export_sphere_csv(str(p), pts, vals, covered=vals > 2)
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "theta,e,covered"
    assert len(lines) == 17
    # >= 15 significant digits on emitted numbers
    mantissa = lines[1].split(",")[1].split("e")[0].replace(".", "").lstrip("-")
    assert len(mantissa) >= 15


@pytest.mark.parametrize("n, head, digest", [
    (2, "0.00000000000000000e+00,3.96208503490152075e-01,0",
     "299f68874a997e66425859d3bc881f226b2e094b6b3488b98aaa68a06c9bfddc"),
    (3, "0.00000000000000000e+00,1.77007686288030930e-01,"
        "2.18606339000962624e+00,1",
     "3a500cd94e1cbc594d6b7504602bb02151a49abe5a46acd2ccea59c929ea22ea")])
def test_sphere_csv_bytes_are_pinned(tmp_path, n, head, digest):
    pts = sphere_points(n, 1.7, 64)
    vals = np.exp(np.sin(3.0 * pts[:, 0]))
    p = tmp_path / "s.csv"
    export_sphere_csv(str(p), pts, vals, vals > 1.0)
    assert p.read_text().splitlines()[1] == head
    assert hashlib.sha256(p.read_bytes()).hexdigest() == digest


def test_vector_field_validation(small_grid):
    with pytest.raises(ValueError):
        VectorField(small_grid, np.full((1,) + small_grid.shape, np.nan))


def _saved_field(tmp_path, grid):
    u = VectorField(grid, np.zeros((2,) + grid.shape))
    path = str(tmp_path / "f.bin")
    save_field(path, u)
    return path


def test_load_field_rejects_short_payload(tmp_path, small_grid):
    path = _saved_field(tmp_path, small_grid)
    with open(path, "r+b") as f:
        f.truncate(os.path.getsize(path) - 8)
    with pytest.raises(ValueError, match="f.bin: payload is"):
        load_field(path)


def test_load_field_rejects_sidecar_mismatch(tmp_path, small_grid):
    path = _saved_field(tmp_path, small_grid)
    with open(path, "r+b") as f:
        f.seek(-8, os.SEEK_END)
        f.write(np.float64(1.0).tobytes())
    with pytest.raises(ValueError, match="f.bin: payload sha256"):
        load_field(path)


def test_load_field_rejects_missing_sidecar(tmp_path, small_grid):
    path = _saved_field(tmp_path, small_grid)
    os.remove(path + ".json")
    with pytest.raises(ValueError, match="f.bin: no readable sidecar"):
        load_field(path)
