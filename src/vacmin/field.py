"""Masked Cartesian grids over balls, discrete fields, quadrature and sampling.

A Grid covers the cube [-L, L]^n with spacing h, L >= r_max + 2h, and
classifies nodes by the ball |x| <= r_max: INTERIOR inside, BOUNDARY on the
first exterior layer (where Dirichlet data lives), EXTERIOR beyond. Field
values are stored on the whole cube so that interpolation and one-sided
stencils near the ball edge stay well defined; solvers only ever update
interior nodes.

An analysis that reads only some nodes names them by their flat cube
indices, an array of any shape (``take``, ``Grid.coordinates``); those of
a centred sub-cube are a ``centred`` block of the cube's.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from functools import cached_property

import numpy as np

from . import _kernels
from .potentials import Potential

EXTERIOR, INTERIOR, BOUNDARY = 0, 1, 2

_MAGIC = b"VACF"
_VERSION = 1
# magic, version, n, m, axis size, h, r_max
_HEADER = struct.Struct("<4sIIIIdd")


class GridError(ValueError):
    pass


class InvariantViolation(Exception):
    """A field or a computed result breaks an identity or estimate that the
    analysis relies on; the CLI exits 4."""


class Grid:
    """Cartesian node lattice with a ball mask; immutable after construction."""

    def __init__(self, n: int, h: float, r_max: float):
        if n not in (2, 3):
            raise GridError("spatial dimension must be 2 or 3")
        if h <= 0 or r_max <= 0:
            raise GridError("h and r_max must be positive")
        if r_max < 4 * h:
            raise GridError("r_max must be at least 4h")
        self.n = int(n)
        self.h = float(h)
        self.r_max = float(r_max)
        half = int(math.ceil(r_max / h)) + 2
        self.axis = h * np.arange(-half, half + 1)
        self.shape = (self.axis.size,) * n
        # squared coordinates summed axis by axis from broadcast axes, so the
        # (n, *shape) coordinate stack is never stored
        sq = self.axis ** 2
        self.radius = np.sqrt(sum(sq.reshape((-1,) + (1,) * (n - 1 - ax))
                                  for ax in range(n)))
        inside = self.radius <= self.r_max * (1 + 1e-12)
        mask = np.zeros(self.shape, dtype=np.int8)
        mask[inside] = INTERIOR
        near = np.zeros(self.shape, dtype=bool)
        for ax in range(n):
            near |= np.roll(inside, 1, axis=ax) | np.roll(inside, -1, axis=ax)
        mask[near & ~inside] = BOUNDARY
        self.mask = mask
        self._check()

    def _check(self) -> None:
        interior = self.mask == INTERIOR
        for ax in range(self.n):
            face = [slice(None)] * self.n
            for end in (0, -1):
                face[ax] = end
                if interior[tuple(face)].any():
                    raise GridError("interior node on the cube face; "
                                    "mask construction failed")
        # every interior node must have all axis neighbors inside the mask
        ok = np.ones(self.shape, dtype=bool)
        nonext = self.mask != EXTERIOR
        for ax in range(self.n):
            ok &= np.roll(nonext, 1, axis=ax) & np.roll(nonext, -1, axis=ax)
        if not ok[interior].all():
            raise GridError("interior node lacking a neighbor in the mask")

    @property
    def coords(self) -> np.ndarray:
        """Node coordinates, shape (n, *shape); built anew on every read."""
        return np.stack(np.meshgrid(*([self.axis] * self.n), indexing="ij"))

    def coordinates(self, nodes: np.ndarray) -> np.ndarray:
        """The coordinates of the nodes at the flat cube indices nodes,
        shape (n, *nodes.shape)."""
        return self.axis[np.stack(np.unravel_index(nodes, self.shape))]

    @cached_property
    def stencil(self):
        """Index arrays of the interior-only operator, built once per grid.

        Returns (interior, ring, nbr): the flat cube indices of the INTERIOR
        nodes, red first (``_kernels.red_first``), and of the BOUNDARY nodes
        in cube order, and for interior node i its neighbour along +axis d
        (d < n) or -axis d-n (d >= n) as nbr[d, i], a position in the buffer
        [interior values, ring values]. Every neighbour of a red node is
        black or on the ring, and the other way round, so the columns of
        nbr split into the rows of the preconditioner's two half sweeps.
        """
        flat = self.mask.ravel()
        interior = _kernels.red_first(self.mask == INTERIOR)[0]
        ring = np.flatnonzero(flat == BOUNDARY)
        pos = np.full(flat.size, -1, dtype=np.intp)
        pos[interior] = np.arange(interior.size)
        pos[ring] = interior.size + np.arange(ring.size)
        strides = [self.axis.size ** (self.n - 1 - ax) for ax in range(self.n)]
        nbr = np.empty((2 * self.n, interior.size), dtype=np.intp)
        for d, s in enumerate(strides + [-s for s in strides]):
            np.take(pos, interior + s, out=nbr[d])
        return interior, ring, nbr

    @property
    def cell(self) -> float:
        return self.h ** self.n

    def ball_volume(self) -> float:
        if self.n == 2:
            return math.pi * self.r_max ** 2
        return 4.0 / 3.0 * math.pi * self.r_max ** 3

    def __eq__(self, other):
        return (isinstance(other, Grid) and self.n == other.n
                and self.h == other.h and self.r_max == other.r_max)

    def __repr__(self):
        return f"Grid(n={self.n}, h={self.h}, r_max={self.r_max})"


class ScalarField:
    def __init__(self, grid: Grid, values: np.ndarray):
        if not isinstance(grid, Grid):
            raise TypeError(f"a field needs a Grid, not {type(grid).__name__}")
        values = np.asarray(values, dtype=float)
        if values.shape != grid.shape:
            raise ValueError("values shape does not match grid")
        self.grid = grid
        self.values = values

    @classmethod
    def constant(cls, grid: Grid, c: float) -> "ScalarField":
        return cls(grid, np.full(grid.shape, float(c)))

    @classmethod
    def from_function(cls, grid: Grid, fn) -> "ScalarField":
        return cls(grid, np.asarray(fn(grid.coords), dtype=float))


class VectorField:
    """m-component field on a grid; values pinned outside the interior."""

    def __init__(self, grid: Grid, values: np.ndarray):
        if not isinstance(grid, Grid):
            raise TypeError(f"a field needs a Grid, not {type(grid).__name__}")
        values = np.asarray(values, dtype=float)
        if values.ndim != grid.n + 1 or values.shape[1:] != grid.shape:
            raise ValueError("values must have shape (m, *grid.shape)")
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must be finite")
        self.grid = grid
        self.values = values

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @classmethod
    def constant(cls, grid: Grid, vec) -> "VectorField":
        vec = np.atleast_1d(np.asarray(vec, dtype=float))
        vals = np.broadcast_to(vec.reshape((-1,) + (1,) * grid.n),
                               (vec.size,) + grid.shape).copy()
        return cls(grid, vals)

    @classmethod
    def from_function(cls, grid: Grid, fn, m: int | None = None) -> "VectorField":
        vals = np.asarray(fn(grid.coords), dtype=float)
        if vals.ndim == grid.n:
            vals = vals[None]
        if m is not None and vals.shape[0] != m:
            raise ValueError(f"function returned {vals.shape[0]} components, "
                             f"expected {m}")
        return cls(grid, vals)

    def with_values(self, values: np.ndarray) -> "VectorField":
        return VectorField(self.grid, values)

    def distance_from(self, point) -> ScalarField:
        """|u - point| per node."""
        p = np.atleast_1d(np.asarray(point, dtype=float))
        d = self.values - p.reshape((-1,) + (1,) * self.grid.n)
        return ScalarField(self.grid, np.sqrt(np.sum(d * d, axis=0)))


# ---------------------------------------------------------------------------
# derivatives and quadrature


def energy_density(u: VectorField, pot: Potential) -> ScalarField:
    """Pointwise 1/2 |grad u|^2 + W(u); nonnegative for valid potentials."""
    return ScalarField(u.grid, _kernels.energy_density(u.values, u.grid.h, pot))


def gradient_sq(u: VectorField) -> ScalarField:
    """|grad u|^2 by centered differences (one-sided at cube faces)."""
    return ScalarField(u.grid, _kernels.gradient_sq(u.values, u.grid.h))


def partial_derivatives(u: VectorField) -> np.ndarray:
    """All first derivatives, shape (n, m, *grid.shape)."""
    return _kernels.derivatives(u.values, u.grid.h)


def centred(a: np.ndarray, half: int, n: int) -> np.ndarray:
    """The centred block of a with ``half`` nodes on each side of the
    middle along each of its last n axes, clamped to a; a view."""
    mid = (a.shape[-1] - 1) // 2
    lo = max(mid - half, 0)
    return a[(Ellipsis,) + (slice(lo, 2 * mid + 1 - lo),) * n]


def take(vals: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """The channels-first whole-cube vals at the flat cube indices nodes,
    shape (m, *nodes.shape)."""
    return np.take(vals.reshape(vals.shape[0], -1), nodes, axis=1)


def ball_weights(grid: Grid, R: float) -> np.ndarray:
    """Midpoint quadrature weights for the ball |x| <= R: full cells inside,
    boundary cells by the clipped linear cell fraction. They are formed on
    the centred sub-cube of half-width ceil(R/h) + 1, which holds every
    nonzero one (a node of weight > 0 has |x| < R + h/2); the weight of
    every node past it is 0."""
    if not 0 < R <= grid.r_max:
        raise ValueError(f"R={R} outside (0, r_max={grid.r_max}]")
    rad = centred(grid.radius, math.ceil(R / grid.h) + 1, grid.n)
    return np.clip((R - rad) / grid.h + 0.5, 0.0, 1.0)


def ball_integrals(grid: Grid, stack, radii) -> np.ndarray:
    """h^n np.sum(s * W_r) for each scalar array s of stack and r of radii,
    shape (len(stack), len(radii)); W_r the ball weights (``ball_weights``,
    formed once per radius) extended by zero to the cube. Each s covers the
    cube or a centred sub-cube that holds W_r's nonzero block. The products
    are formed on that block alone, into a zero array of the cube's shape;
    np.sum reads them in their whole-cube positions and zeros elsewhere, so
    each sum has the bits of the whole-cube product's (where W_r is 0 that
    product holds s * 0, which can change only a zero sum's sign, or make
    the sum nan where s is not finite)."""
    buf = np.zeros(grid.shape)
    out = np.empty((len(stack), len(radii)))
    for j, r in enumerate(radii):
        w = ball_weights(grid, r)
        half = w.shape[0] // 2
        block = centred(buf, half, grid.n)
        for i, s in enumerate(stack):
            np.multiply(centred(s, half, grid.n), w, out=block)
            out[i, j] = np.sum(buf) * grid.cell
        block.fill(0.0)
    return out


def integrate_ball(s: ScalarField, R: float) -> float:
    return float(ball_integrals(s.grid, [s.values], [R])[0, 0])


def sphere_area(n: int, R: float) -> float:
    return 2.0 * math.pi * R if n == 2 else 4.0 * math.pi * R * R


def sphere_points(n: int, R: float, K: int) -> np.ndarray:
    """K points on the sphere of radius R: equi-angular for n=2, a Fibonacci
    lattice for n=3. Shape (K, n)."""
    if K < 8:
        raise ValueError("need at least 8 sphere points")
    if n == 2:
        t = 2.0 * math.pi * np.arange(K) / K
        return R * np.stack([np.cos(t), np.sin(t)], axis=1)
    i = np.arange(K)
    z = 1.0 - (2.0 * i + 1.0) / K
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = i * math.pi * (3.0 - math.sqrt(5.0))
    return R * np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def interpolate(grid: Grid, stack: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Multilinear interpolation of a (..., s, ..., s) stack at pts (K, n);
    returns (..., K).

    The stack covers the grid's cube (s = its axis size) or the cube of
    side s centred in it, which must hold every cell a point falls in; a
    point outside the stack's cells is refused, never extrapolated. Cell
    fractions do not depend on s. The weight of a corner is the product of
    its axis factors in axis order, partial products shared among corners;
    each corner is one flat gather from the stack, summed in corner
    order."""
    n = grid.n
    size, side = grid.axis.size, stack.shape[-1]
    if (stack.shape[-n:] != (side,) * n or side > size
            or (size - side) % 2):
        raise ValueError(f"stack of shape {stack.shape} is neither the "
                         f"grid's cube nor a cube centred in it")
    # (n, K), C-ordered, and never a view of pts; shifting the grid's frame
    # to the stack's by a whole number of cells is exact
    t = np.subtract(np.asarray(pts, dtype=float).T, grid.axis[0], order="C")
    t /= grid.h
    t -= (size - side) // 2
    if t.size and not (t.min() >= 0 and t.max() <= side - 1):
        raise ValueError("points outside the stack's cube or sub-cube")
    i0 = np.floor(t)
    # a point on the stack's last face is in its last cell, at fraction 1
    np.clip(i0, 0, side - 2, out=i0)
    frac = t
    frac -= i0
    idx = i0.astype(np.intp)
    strides = [side ** (n - 1 - ax) for ax in range(n)]
    base = idx[0] * strides[0]
    for ax in range(1, n):
        base += idx[ax] * strides[ax]
    # a corner is sum over axes of bit_ax << ax; partial[c] is the product
    # of the factors of its first n - 1 axes, which 2 corners share
    partial = [1.0 - frac[0], frac[0]]
    for ax in range(1, n - 1):
        low = 1.0 - frac[ax]
        partial = [w * low for w in partial] + [w * frac[ax] for w in partial]
    last = (1.0 - frac[n - 1], frac[n - 1])
    lead = stack.shape[:-n]
    flat = stack.reshape(lead + (-1,))
    out = np.zeros(lead + (t.shape[1],))
    for corner in range(2 ** n):
        offset = sum(s for ax, s in enumerate(strides) if (corner >> ax) & 1)
        w = partial[corner % len(partial)] * last[corner // len(partial)]
        out += np.take(flat, base + offset, axis=-1) * w
    return out


# sphere points interpolated in one call (4 radii at K = 4096): fewer
# calls, and the (points, n) arrays of a call stay small
_SPHERE_BATCH = 4 * 4096


def sphere_means(grid: Grid, stack: np.ndarray, radii: np.ndarray,
                 unit: np.ndarray) -> np.ndarray:
    """The mean of a scalar stack over the points r * unit for each r in
    radii, from one interpolation per batch of radii that holds at most
    _SPHERE_BATCH points (or one radius). For unit = sphere_points(n, 1, K),
    r * unit is the radius-r lattice bit for bit, and each row mean of a
    (batch, K) block has the bits of that radius's own mean."""
    step = max(1, _SPHERE_BATCH // len(unit))
    out = np.empty(len(radii))
    for b in range(0, len(radii), step):
        batch = radii[b:b + step]
        pts = (batch[:, None, None] * unit).reshape(-1, grid.n)
        vals = interpolate(grid, stack, pts)
        out[b:b + step] = vals.reshape(len(batch), len(unit)).mean(axis=1)
    return out


def sample_sphere(s: ScalarField, R: float, K: int):
    """Values of s at K sphere points of radius R by multilinear interpolation.
    Returns (points (K, n), values (K,))."""
    g = s.grid
    if not R > 0 or R + g.h > g.r_max:
        raise ValueError(f"R={R} not positive or too close to the grid edge "
                         f"(r_max={g.r_max})")
    pts = sphere_points(g.n, R, K)
    return pts, interpolate(g, s.values, pts)


# ---------------------------------------------------------------------------
# serialization


def save_field(path: str, u: VectorField, **meta) -> None:
    """Flat binary layout: header (magic, version, n, m, axis size, h, r_max)
    then node-major component-minor float64 payload; JSON sidecar with meta."""
    g = u.grid
    payload = np.moveaxis(u.values, 0, -1).astype("<f8").tobytes(order="C")
    header = _HEADER.pack(_MAGIC, _VERSION, g.n, u.m, g.axis.size, g.h,
                          g.r_max)
    with open(path, "wb") as f:
        f.write(header)
        f.write(payload)
    sidecar = {
        "format": "vacmin-field",
        "version": _VERSION,
        "n": g.n,
        "m": u.m,
        "h": g.h,
        "r_max": g.r_max,
        "axis_size": g.axis.size,
        "payload_sha256": hashlib.sha256(payload).hexdigest(), **meta,
    }
    with open(path + ".json", "w") as f:
        json.dump(sidecar, f, indent=2, sort_keys=True)
        f.write("\n")


def load_field(path: str) -> VectorField:
    """Read a field written by save_field, checking the payload length
    against the header and its sha256 against the sidecar."""
    with open(path, "rb") as f:
        header = f.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ValueError(f"{path}: truncated field header")
        magic, version, n, m, size, h, r_max = _HEADER.unpack(header)
        if magic != _MAGIC or version != _VERSION:
            raise ValueError(f"{path}: not a vacmin field file")
        payload = f.read()
    expected_len = 8 * m * size ** n
    if len(payload) != expected_len:
        raise ValueError(f"{path}: payload is {len(payload)} bytes, header "
                         f"n={n} m={m} axis size={size} needs {expected_len}")
    try:
        with open(path + ".json") as f:
            sha256 = json.load(f)["payload_sha256"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"{path}: no readable sidecar {path}.json "
                         f"({type(exc).__name__})") from exc
    if hashlib.sha256(payload).hexdigest() != sha256:
        raise ValueError(f"{path}: payload sha256 does not match {path}.json")
    grid = Grid(n, h, r_max)
    if grid.axis.size != size:
        raise ValueError(f"{path}: grid size mismatch in field file")
    vals = np.frombuffer(payload, dtype="<f8").reshape(grid.shape + (m,))
    return VectorField(grid, np.moveaxis(vals, -1, 0).copy())


def export_sphere_csv(path: str, points: np.ndarray, values: np.ndarray,
                      covered: np.ndarray) -> None:
    """Sphere samples as CSV with angles, value and covered flag."""
    n = points.shape[1]
    R = float(np.linalg.norm(points[0]))
    with open(path, "w") as f:
        f.write("theta," + "phi," * (n - 2) + "e,covered\n")
        for p, v, c in zip(points, values, covered):
            row = [math.atan2(p[1], p[0])]
            if n == 3:
                row.append(math.acos(max(-1.0, min(1.0, p[2] / R))))
            f.write("".join(f"{x:.17e}," for x in row + [v]) + f"{int(c)}\n")
