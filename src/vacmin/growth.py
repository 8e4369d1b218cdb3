"""Energy-growth analytics: radial profiles, the annulus comparison bound,
and the exponent-improvement (bootstrap) arithmetic with its fixed point.

Asymptotic statements are never asserted at desk scale; the diagnostics
report normalized-energy trends and fitted exponents instead.

Ball energies go through ``field.ball_integrals``, which forms weights and
products only on the sub-cube that holds B_R's nonzero weights. The
annulus field is built at the flat cube indices its caller passes: the
comparison bound forms it, and its energy density, on the centred sub-cube
that B_R's weights and their centered differences read; the competitor
suite forms it on the interior and ring nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dfield

import numpy as np

from . import _kernels
from .field import (VectorField, ball_integrals, centred, energy_density,
                    interpolate, take)
from .potentials import Potential


@dataclass
class EnergyProfile:
    radii: list
    energies: list

    def __post_init__(self):
        r = np.asarray(self.radii, dtype=float)
        if np.any(np.diff(r) <= 0):
            raise ValueError("radii must be strictly increasing")

    def to_dict(self) -> dict:
        return {"radii": list(map(float, self.radii)),
                "energies": list(map(float, self.energies))}


def energy_profile(u: VectorField, pot: Potential, radii) -> EnergyProfile:
    e = energy_density(u, pot).values
    return EnergyProfile(list(map(float, radii)),
                         ball_integrals(u.grid, [e], radii)[0].tolist())


def annulus_field(u: VectorField, pot: Potential, R: float,
                  nodes: np.ndarray) -> np.ndarray:
    """The comparison field at the flat cube indices nodes, shape
    (m, *nodes.shape): equal to u outside B_R, identically the potential
    zero inside B_{R-1}, radially linear across the unit-width annulus in
    between using u's trace on the sphere |x| = R."""
    g = u.grid
    # R = r_max is fine: the cube carries two padding layers past the ball,
    # so interpolation at radius R <= r_max never leaves the value array
    if R < 1.0 + g.h or R > g.r_max:
        raise ValueError("need 1 + h <= R <= r_max")
    # only the ramp shell R - 1 < |x| <= R reads the trace; R - 1 > 0, so
    # no shell node sits at the origin
    a = pot.zero[:, None]
    rad = np.take(g.radius, nodes)
    vals = take(u.values, nodes)
    vals[:, rad <= R - 1.0] = a
    shell = (rad > R - 1.0) & (rad <= R)
    rad_s = rad[shell]
    pts = (g.coordinates(nodes[shell]) / rad_s * R).T
    trace = interpolate(g, u.values, pts)
    lam = np.clip(rad_s - (R - 1.0), 0.0, 1.0)
    vals[:, shell] = a + lam * (trace - a)
    return vals


def comparison_bound(u: VectorField, pot: Potential, R: float) -> float:
    """Energy in B_R of the annulus comparison field; any minimizer with the
    same trace on |x| = R must have E(u; B_R) at or below this.

    The field and its energy density are formed on the centred sub-cube of
    half-width ceil(R/h) + 2, as in ``pohozaev_balance``: the nodes of
    nonzero ball weight (``ball_weights``) and one layer more, so that
    every weighted node has the centered differences it has on the whole
    cube, bit for bit."""
    g = u.grid
    nodes = centred(np.arange(g.mask.size).reshape(g.shape),
                    math.ceil(R / g.h) + 2, g.n)
    e = _kernels.energy_density(annulus_field(u, pot, R, nodes), g.h, pot)
    return float(ball_integrals(g, [e], [R])[0, 0])


# ---------------------------------------------------------------------------
# exponent bootstrap


def bootstrap_map(k: float, n: int, q: float) -> float:
    """Improved growth exponent: a ball-energy bound R^k upgrades itself to
    R^{gamma(k)} with gamma(k) = n - 1 - 2(n - k)/(qn + 2)."""
    if q < 2 or n < 2 or not 0 < k <= n - 1:
        raise ValueError("need q >= 2, n >= 2, k in (0, n-1]")
    return n - 1 - 2.0 * (n - k) / (q * n + 2.0)


def bootstrap_fixed_point(n: int, q: float, tol: float = 1e-14):
    """Iterate k -> gamma(k) from k0 = n - 1 down to its fixed point
    n - 1 - 2/(qn). The map is a contraction with factor 2/(qn + 2).
    Returns (k_star, iterations)."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    k = float(n - 1)
    iterations = 0
    while True:
        k_next = bootstrap_map(k, n, q)
        iterations += 1
        if abs(k_next - k) <= tol:
            return k_next, iterations
        k = k_next


@dataclass
class GrowthReport:
    radii: list
    energies: list
    normalized: list               # E(R) / R^{n-1}
    violations: list               # indices where the normalized value rose
    fitted_exponent: float | None  # None unless every energy is positive
    reference_exponent: float      # n - 1 - 2/(qn)
    rescaled_l2: list = dfield(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "radii": self.radii,
            "energies": self.energies,
            "normalized": self.normalized,
            "violations": self.violations,
            "fitted_exponent": self.fitted_exponent,
            "reference_exponent": self.reference_exponent,
            "rescaled_l2": self.rescaled_l2,
            "units": {"radii": "length", "energies": "energy",
                      "normalized": "energy / length^(n-1)"},
        }


def growth_diagnostic(radii, energies, n: int, q: float,
                      rescaled_l2=None) -> GrowthReport:
    """Trend diagnostic across doubling radii: the normalized sequence
    E(R)/R^{n-1}, its monotone-decrease violations, and the log-log fitted
    exponent against the reference n - 1 - 2/(qn). The exponent is None
    when an energy is not positive: its logarithm is undefined."""
    radii = list(map(float, radii))
    energies = list(map(float, energies))
    if len(radii) < 3:
        raise ValueError("need at least 3 radii")
    r = np.asarray(radii)
    e = np.asarray(energies)
    norm = e / r ** (n - 1)
    violations = [int(i) for i in range(len(r) - 1) if norm[i + 1] > norm[i]]
    slope = (float(np.polyfit(np.log(r), np.log(e), 1)[0])
             if np.all(e > 0) else None)
    return GrowthReport(
        radii=radii,
        energies=energies,
        normalized=[float(x) for x in norm],
        violations=violations,
        fitted_exponent=slope,
        reference_exponent=n - 1 - 2.0 / (q * n),
        rescaled_l2=list(map(float, rescaled_l2)) if rescaled_l2 else [],
    )


def rescaled_l2_smallness(u: VectorField, pot: Potential, radii) -> list:
    """Blow-down bookkeeping at each R of radii: with eps = 1/R and
    u_eps(y) = u(y/eps), this is
    (1/eps) * int_{B_2} |u_eps - zero|^2 dy = eps^{n-1} int_{B_{2R}} |u - zero|^2.
    The field ends at r_max, so the ball is clipped to B_{min(2R, r_max)}:
    from R = r_max / 2 on, the integral is over B_{r_max} (for the last 4
    of energy-profile's 8 default radii r_max * k / 8). |u - zero|^2 is
    formed once for all radii."""
    g = u.grid
    dist2 = u.distance_from(pot.zero).values ** 2
    balls = ball_integrals(g, [dist2], [min(2.0 * R, g.r_max) for R in radii])
    return [(1.0 / R) ** (g.n - 1) * float(b) for R, b in zip(radii, balls[0])]
