"""Competitor constructions and the energy comparisons they force.

Four kinds, each agreeing with the minimizer on the pinned boundary data
in its intended usage:

* annulus:        the potential zero inside, radially linear ramp to the
                  field's own sphere trace over a unit annulus;
* truncation:     modulus capped at r with a piecewise-linear taper that
                  kills the field past modulus 2r;
* min-truncation: pointwise min with a scalar level (m = 1 only);
* shell:          fixed modulus r, direction copied from the field.

Since a converged discrete minimizer cannot be beaten by any field sharing
its boundary values, each admissible competitor's energy must come out at
least E(u) - delta_q; the reports record exactly that comparison. Nothing
here solves: every check takes a minimizer its caller has solved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import InteriorOperator
from .field import BOUNDARY, INTERIOR, VectorField
from .growth import annulus_field
from .minimizer import SolveReport, discrete_energy
from .potentials import Potential, verify_assumptions


def quadrature_slack(grid, scale: float = 1e-3) -> float:
    """Default energy-comparison slack: 1e-8 + scale * h^2 * |ball|."""
    return 1e-8 + scale * grid.h ** 2 * grid.ball_volume()


@dataclass
class CompetitorReport:
    tag: str
    energy_u: float
    energy_competitor: float
    difference: float              # E(competitor) - E(u)
    boundary_deviation: float      # max |competitor - u| over boundary nodes
    admissible: bool               # boundary deviation == 0
    params: dict
    note: str = ""

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def _boundary_deviation(u: VectorField, v: VectorField) -> float:
    sel = u.grid.mask == BOUNDARY
    d = np.sqrt(np.sum((u.values - v.values) ** 2, axis=0))
    return float(d[sel].max())


def compare(u: VectorField, energy_u: float, v: VectorField, pot: Potential,
            tag: str, params: dict | None = None) -> CompetitorReport:
    """Compare the competitor v with u, whose discrete energy is
    energy_u."""
    ev = discrete_energy(v, pot)
    dev = _boundary_deviation(u, v)
    # the shell construction renormalizes the direction, so allow roundoff
    return CompetitorReport(
        tag=tag,
        energy_u=energy_u,
        energy_competitor=ev,
        difference=ev - energy_u,
        boundary_deviation=dev,
        admissible=bool(dev <= 1e-12),
        params=params or {},
    )


def _polar(vals: np.ndarray, zero):
    """(zero as a column, d = vals - zero, rho = |d|) for a channels-first
    array of any trailing shape."""
    a = np.asarray(zero, dtype=float).reshape((-1,) + (1,) * (vals.ndim - 1))
    d = vals - a
    return a, d, np.sqrt(np.sum(d * d, axis=0))


def _direction(d: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """d / rho, and 0 where rho = 0."""
    return np.where(rho > 0.0, d / np.where(rho > 0, rho, 1.0), 0.0)


# ---------------------------------------------------------------------------
# constructions


def build_annulus_competitor(u: VectorField, pot: Potential,
                             s_r: float) -> VectorField:
    """Zero-potential core with a unit linear ramp to u's trace at |x| = s_r;
    equals u outside B_{s_r}."""
    if s_r < 1.0 + 2 * u.grid.h:
        raise ValueError("annulus radius too small: need s_r >= 1 + 2h")
    return annulus_field(u, pot, s_r)


def taper(tau, r: float):
    """Piecewise-linear cutoff: 1 below r, (2r - tau)/r on [r, 2r], 0 past 2r."""
    if r <= 0:
        raise ValueError("r must be positive")
    tau = np.asarray(tau, dtype=float)
    out = np.clip((2.0 * r - tau) / r, 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


def build_truncation(u: VectorField, zero, r: float) -> VectorField:
    """Cap the modulus rho = |u - zero| at r and taper to the zero past 2r:
    u~ = zero + min(rho, r) * taper(rho) * direction. Idempotent; nodes with
    rho = 0 map to the zero."""
    if r <= 0:
        raise ValueError("r must be positive")
    a, d, rho = _polar(u.values, zero)
    return u.with_values(a + _direction(np.minimum(rho, r) * taper(rho, r),
                                        rho) * d)


def build_min_truncation(u: VectorField, level: float) -> VectorField:
    """Pointwise min with a scalar level; scalar fields only."""
    if u.m != 1:
        raise ValueError("min-truncation is defined for m = 1 only")
    return u.with_values(np.minimum(u.values, level))


def select_truncation_level(u: VectorField, zero: float, d: float,
                            pot: Potential) -> float:
    """Leftmost minimizer of W over [zero + d, max u], on a uniform scan."""
    if u.m != 1:
        raise ValueError("truncation level selection is for m = 1 only")
    zero = float(np.atleast_1d(zero)[0])
    umax = float(u.values.max())
    lo = zero + d
    if umax <= lo:
        raise ValueError(f"max u = {umax:.6g} does not exceed zero + d = {lo:.6g}")
    levels = np.linspace(lo, umax, 10_000)
    w = pot.value_field(levels[None, :])
    return float(levels[int(np.argmin(w))])


def modulus_gradient_ratio(u: VectorField, trunc: VectorField,
                           pot: Potential) -> float:
    """max over the energy's edges (``InteriorOperator.edges``) of
    |D rho~| / |D rho|: the truncation composes the modulus with a
    1-Lipschitz map, so this stays <= 1 up to roundoff. Reported alongside
    the energy comparison, never asserted."""
    interior, ring, _ = u.grid.stencil
    nodes = np.concatenate([interior, ring])  # the positions edges() reads
    rho, rho_t = (_polar(np.take(f.values.reshape(f.m, -1), nodes, axis=1),
                         pot.zero)[2] for f in (u, trunc))
    worst = 0.0
    for a, b in InteriorOperator(u.grid, u.values, pot).edges():
        d = np.abs(rho.take(b) - rho.take(a))
        dt = np.abs(rho_t.take(b) - rho_t.take(a))
        sel = d > 1e-14
        if np.any(sel):
            worst = max(worst, float((dt[sel] / d[sel]).max()))
    return worst


def build_shell(u: VectorField, zero, r: float) -> VectorField:
    """Fixed modulus r, direction from u; nodes at the zero get the first
    coordinate direction."""
    if r <= 0:
        raise ValueError("r must be positive")
    a, d, rho = _polar(u.values, zero)
    nu = _direction(d, rho)
    nu[0][~(rho > 0.0)] = 1.0
    return u.with_values(a + r * nu)


# ---------------------------------------------------------------------------
# variational maximum principle check


@dataclass
class MaxPrincipleReport:
    r: float
    boundary_sup: float
    interior_sup: float
    holds: bool
    slack: float
    energy_u: float
    energy_truncation: float
    truncation_difference: float    # E(u~) - E(u), expected <= delta_q
    solver_converged: bool
    residual: float
    assumptions_ok: bool
    positivity_redundancy_ok: bool  # W > 0 on |u - zero| < 2 r0 re-checked
    note: str

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def max_principle_assumptions(pot: Potential, r: float, seed: int = 0):
    """The assumption report (128 seeded directions), once it shows
    nondecreasing radial sections and r in (0, r0/2); else ValueError."""
    rep = verify_assumptions(pot, samples=128, seed=seed)
    if not rep.radial_monotone_ok:
        raise ValueError("potential lacks nondecreasing radial sections; "
                         "the variational maximum principle does not apply")
    r0 = pot.monot_radius
    if not 0 < r < r0 / 2:
        raise ValueError(f"need r in (0, r0/2) = (0, {r0 / 2:.6g})")
    return rep


def boundary_within(u: VectorField, zero, r: float) -> float:
    """sup over the BOUNDARY nodes of |u - zero|, which the maximum
    principle needs within r (up to rounding); ValueError when it exceeds
    r."""
    sup = float(u.distance_from(zero).values[u.grid.mask == BOUNDARY].max())
    if sup > r * (1 + 1e-12):
        raise ValueError(f"boundary data exceeds r: sup |g - zero| = "
                         f"{sup:.6g} > {r:.6g}")
    return sup


def max_principle_check(u: VectorField, pot: Potential, r: float,
                        solve: SolveReport,
                        seed: int = 0) -> MaxPrincipleReport:
    """Compare the interior excursion of u, the minimizer that ``solve``
    reports for boundary data within r of the zero, against r, and its
    truncation competitor's energy against E(u). Preconditions: those of
    ``max_principle_assumptions``, and u's boundary values within r."""
    rep = max_principle_assumptions(pot, r, seed)
    grid = u.grid
    boundary_sup = boundary_within(u, pot.zero, r)
    dist = u.distance_from(pot.zero).values
    # the solver's reported energy is discrete_energy(u) bit for bit
    eu = solve.energy
    et = discrete_energy(build_truncation(u, pot.zero, r), pot)
    dq = quadrature_slack(grid)
    interior_sup = float(dist[grid.mask == INTERIOR].max())
    holds = interior_sup <= r + 2 * grid.h
    note = ("interior excursion within r + 2h" if holds
            else "interior excursion exceeded r + 2h")
    if et > eu + dq:
        note += "; WARNING: truncation lowered below expected energy bracket"
    return MaxPrincipleReport(
        r=r,
        boundary_sup=boundary_sup,
        interior_sup=interior_sup,
        holds=bool(holds),
        slack=2 * grid.h,
        energy_u=eu,
        energy_truncation=et,
        truncation_difference=et - eu,
        solver_converged=solve.converged,
        residual=solve.residual,
        assumptions_ok=rep.radial_monotone_ok,
        positivity_redundancy_ok=rep.positive_near_zero_ok,
        note=note,
    )


def standard_suite(u: VectorField, pot: Potential,
                   boundary_magnitude: float) -> list:
    """All applicable competitor comparisons for one converged minimizer.

    ``boundary_magnitude`` is the (constant) modulus of the boundary data;
    truncation and shell use it as their cap so they agree with u on the
    boundary. Min-truncation (m = 1) uses the boundary max as the level
    floor, which keeps it admissible; on true minimizers the interior never
    exceeds the boundary so that comparison is typically trivial.
    """
    g = u.grid
    eu = discrete_energy(u, pot)
    s_r = g.r_max - 2 * g.h
    reports = [compare(u, eu, build_annulus_competitor(u, pot, s_r), pot,
                       "annulus", {"s_r": s_r})]
    mag = float(boundary_magnitude)
    trunc = build_truncation(u, pot.zero, mag)
    reports.append(compare(u, eu, trunc, pot, "truncation", {
        "r": mag,
        "grad_ratio": modulus_gradient_ratio(u, trunc, pot)}))
    shell = compare(u, eu, build_shell(u, pot.zero, mag), pot,
                    "constant-r-shell", {"r": mag})
    if not shell.admissible:
        shell.note = ("boundary modulus is not constant; shell competitor "
                      "not admissible, energy comparison skipped")
    reports.append(shell)
    if u.m == 1:
        zero = float(pot.zero[0])
        bsup = float(u.values[0][g.mask == BOUNDARY].max())
        umax = float(u.values[0].max())
        level = umax if umax <= bsup else select_truncation_level(
            u, zero, bsup - zero, pot)
        rep = compare(u, eu, build_min_truncation(u, level), pot,
                      "min-truncation", {"level": level})
        if level >= umax:
            rep.note = "interior never exceeds boundary; comparison is trivial"
        reports.append(rep)
    return reports
