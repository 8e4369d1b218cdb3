"""Boundary data generators.

Each generator returns a vectorized function x -> g(x) defined on the whole
cube; the solver pins it on the boundary layer and uses a radially ramped
version as the initial iterate. Tags:

* constant:        g = zero everywhere
* angular:         direction rotates with the azimuthal angle, modulus fixed
                   (for m = 1 the signed amplitude varies with the angle)
* radial-profile:  g = zero + magnitude * d everywhere, d the unit
                   ``direction`` (default the first axis); ``constant``
                   generates it as it generates the zero
* random:          seeded band-limited random smooth data, rescaled to the
                   requested modulus
"""

from __future__ import annotations

import numpy as np

from .field import Grid, VectorField
from .potentials import Potential


def constant(point: np.ndarray):
    """g = ``point`` on the whole cube."""
    def fn(x):
        return np.broadcast_to(point.reshape((-1,) + (1,) * (x.ndim - 1)),
                               point.shape + x.shape[1:]).copy()
    return fn


def angular(pot: Potential, magnitude: float, windings: int = 1,
            phase: float = 0.0):
    zero = pot.zero
    m = zero.size

    def fn(x):
        theta = np.arctan2(x[1], x[0])
        arg = windings * theta + phase
        out = np.broadcast_to(zero.reshape((-1,) + (1,) * (x.ndim - 1)),
                              (m,) + x.shape[1:]).copy()
        if m == 1:
            out[0] += magnitude * np.cos(arg)
        else:
            out[0] += magnitude * np.cos(arg)
            out[1] += magnitude * np.sin(arg)
        return out
    return fn


def random_smooth(pot: Potential, magnitude: float, seed: int = 0,
                  bandlimit: float = 3.0, terms: int = 6):
    """Band-limited random Fourier features of the direction x/|x|, rescaled
    so the modulus |g - zero| is guaranteed <= magnitude everywhere."""
    zero = pot.zero
    m = zero.size
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal((m, terms))
    freqs = rng.uniform(-bandlimit, bandlimit, size=(terms, 3))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=terms)
    # |sum_l A_cl cos(...)| <= sum_l |A_cl| gives a rigorous modulus bound
    sup_bound = float(np.sqrt(np.sum(np.abs(amps).sum(axis=1) ** 2)))
    scale = magnitude / sup_bound if sup_bound > 0 else 0.0

    def raw(nu):  # nu: (n, K)
        n = nu.shape[0]
        w = freqs[:, :n]
        arg = np.tensordot(w, nu, axes=(1, 0)) + phases[:, None]  # (terms, K)
        return amps @ np.cos(arg)  # (m, K)

    def fn(x):
        r = np.sqrt(np.sum(x ** 2, axis=0))
        flat_r = r.reshape(-1)
        nu = np.where(flat_r > 1e-12, x.reshape(x.shape[0], -1) / np.where(
            flat_r > 0, flat_r, 1.0), 0.0)
        nu[0] = np.where(flat_r > 1e-12, nu[0], 1.0)
        g = scale * raw(nu)
        out = zero.reshape((-1, 1)) + g
        return out.reshape((m,) + x.shape[1:])
    return fn


MAGNITUDE = 0.5  # the boundary modulus when a block leaves it out

# per tag, the block keys make_boundary reads and their types (None: a
# point, a list of numbers or one number for m = 1, passed as given); a key
# left out takes the generator's default. Every tag knows ``magnitude``:
# the competitor suite caps its constructions at it.
CONFIG_KEYS = {
    "constant": {"magnitude": float},
    "angular": {"magnitude": float, "windings": int, "phase": float},
    "radial-profile": {"magnitude": float, "direction": None},
    "random": {"magnitude": float, "seed": int, "bandlimit": float,
               "terms": int},
}


def make_boundary(tag: str, pot: Potential, params: dict):
    """The generator ``tag`` names, fed the keys ``CONFIG_KEYS`` lists for
    that tag; other keys in ``params`` are ignored."""
    if tag not in CONFIG_KEYS:
        raise ValueError(f"unknown boundary tag {tag!r}")
    kw = {k: params[k] if cast is None else cast(params[k])
          for k, cast in CONFIG_KEYS[tag].items() if k in params}
    magnitude = kw.pop("magnitude", MAGNITUDE)
    if tag == "constant":
        return constant(pot.zero)
    if tag == "angular":
        return angular(pot, magnitude, **kw)
    if tag == "radial-profile":
        d = np.asarray(kw.get("direction", np.eye(1, pot.m)[0]), dtype=float)
        return constant(pot.zero + magnitude * (d / np.linalg.norm(d)))
    return random_smooth(pot, magnitude, **kw)


def initial_field(grid: Grid, pot: Potential, boundary_fn) -> VectorField:
    """Initial iterate carrying the boundary data: g on and beyond the ball
    edge, ramped linearly to the potential zero over a unit width inward."""
    g = VectorField.from_function(grid, boundary_fn, m=pot.m)
    lam = np.clip(grid.radius - (grid.r_max - 1.0), 0.0, 1.0)
    a = pot.zero.reshape((-1,) + (1,) * grid.n)
    vals = a + lam * (g.values - a)
    return VectorField(grid, vals)
