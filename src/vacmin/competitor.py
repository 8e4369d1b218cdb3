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

A discrete energy reads only the interior and ring (BOUNDARY) nodes, so
the suite and the maximum-principle check gather u's values there once
(``interior_and_ring``, their flat cube indices) and build every
competitor on that (m, K) array: the constructions map channels-first
values of any shape node by node, and the annulus is
``growth.annulus_field`` at those nodes. One
``InteriorOperator``, pinned to each competitor's ring in turn, evaluates
every energy, and boundary deviations read the ring alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import InteriorOperator
from .field import BOUNDARY, VectorField, take
from .growth import annulus_field
from .minimizer import SolveReport
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


def interior_and_ring(grid) -> np.ndarray:
    """The flat cube indices of the interior and ring nodes, [interior,
    ring] in ``stencil`` order: the positions of ``InteriorOperator``'s
    buffer, so a field's values there are what its energy reads."""
    interior, ring, _ = grid.stencil
    return np.concatenate([interior, ring])


def competitor_energy(op: InteriorOperator, v: np.ndarray) -> float:
    """The discrete energy of the node values v (``interior_and_ring``):
    op's, with v's ring pinned."""
    n_int = op.n_int
    op.pin(v[:, n_int:])
    return op.energy(v[:, :n_int])


def compare(op: InteriorOperator, u: np.ndarray, energy_u: float,
            v: np.ndarray, tag: str,
            params: dict | None = None) -> CompetitorReport:
    """Compare the competitor v with u, both node values
    (``interior_and_ring``), u's discrete energy being energy_u. The
    boundary deviation reads the ring alone."""
    ev = competitor_energy(op, v)
    n_int = op.n_int
    dev = float(np.sqrt(np.sum((u[:, n_int:] - v[:, n_int:]) ** 2,
                               axis=0)).max())
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
# constructions: each maps channels-first values of any trailing shape (the
# whole cube's, or the interior and ring nodes') node by node


def taper(tau, r: float):
    """Piecewise-linear cutoff: 1 below r, (2r - tau)/r on [r, 2r], 0 past 2r."""
    if r <= 0:
        raise ValueError("r must be positive")
    tau = np.asarray(tau, dtype=float)
    out = np.clip((2.0 * r - tau) / r, 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


def build_truncation(vals: np.ndarray, zero, r: float) -> np.ndarray:
    """Cap the modulus rho = |u - zero| at r and taper to the zero past 2r:
    u~ = zero + min(rho, r) * taper(rho) * direction. Idempotent; nodes with
    rho = 0 map to the zero."""
    if r <= 0:
        raise ValueError("r must be positive")
    a, d, rho = _polar(vals, zero)
    return a + _direction(np.minimum(rho, r) * taper(rho, r), rho) * d


def build_min_truncation(vals: np.ndarray, level: float) -> np.ndarray:
    """Pointwise min with a scalar level; scalar fields only."""
    if vals.shape[0] != 1:
        raise ValueError("min-truncation is defined for m = 1 only")
    return np.minimum(vals, level)


def select_truncation_level(vals: np.ndarray, zero: float, d: float,
                            pot: Potential) -> float:
    """Leftmost minimizer of W over [zero + d, max vals], on a uniform
    scan."""
    if vals.shape[0] != 1:
        raise ValueError("truncation level selection is for m = 1 only")
    zero = float(np.atleast_1d(zero)[0])
    umax = float(vals.max())
    lo = zero + d
    if umax <= lo:
        raise ValueError(f"max u = {umax:.6g} does not exceed zero + d = {lo:.6g}")
    levels = np.linspace(lo, umax, 10_000)
    w = pot.value_field(levels[None, :])
    return float(levels[int(np.argmin(w))])


def modulus_gradient_ratio(op: InteriorOperator, u: np.ndarray,
                           trunc: np.ndarray, zero) -> float:
    """max over the energy's edges (``op.edges``) of |D rho~| / |D rho|,
    rho and rho~ the moduli |u - zero| and |trunc - zero| of node values
    (``interior_and_ring``): the truncation composes the modulus with a
    1-Lipschitz map, so this stays <= 1 up to roundoff. Reported alongside
    the energy comparison, never asserted."""
    rho, rho_t = (_polar(v, zero)[2] for v in (u, trunc))
    worst = 0.0
    for a, b in op.edges():
        d = np.abs(rho[b] - rho[a])
        dt = np.abs(rho_t[b] - rho_t[a])
        sel = d > 1e-14
        if np.any(sel):
            worst = max(worst, float((dt[sel] / d[sel]).max()))
    return worst


def build_shell(vals: np.ndarray, zero, r: float) -> np.ndarray:
    """Fixed modulus r, direction from u; nodes at the zero get the first
    coordinate direction."""
    if r <= 0:
        raise ValueError("r must be positive")
    a, d, rho = _polar(vals, zero)
    nu = _direction(d, rho)
    nu[0][~(rho > 0.0)] = 1.0
    return a + r * nu


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
    op = InteriorOperator(grid, u.values, pot)
    uv = take(u.values, interior_and_ring(grid))
    # the solver's reported energy is discrete_energy(u) bit for bit
    eu = solve.energy
    et = competitor_energy(op, build_truncation(uv, pot.zero, r))
    dq = quadrature_slack(grid)
    interior_sup = float(_polar(uv[:, :op.n_int], pot.zero)[2].max())
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

    Every competitor is built on u's values at the interior and ring nodes
    (``interior_and_ring``), the only ones its discrete energy reads, and
    every energy is evaluated by one ``InteriorOperator``, pinned to each
    competitor's ring in turn.
    """
    g = u.grid
    s_r = g.r_max - 2 * g.h
    if s_r < 1.0 + 2 * g.h:
        raise ValueError("annulus radius too small: need s_r >= 1 + 2h")
    nodes = interior_and_ring(g)
    op = InteriorOperator(g, u.values, pot)
    uv = take(u.values, nodes)
    eu = competitor_energy(op, uv)
    reports = [compare(op, uv, eu, annulus_field(u, pot, s_r, nodes),
                       "annulus", {"s_r": s_r})]
    mag = float(boundary_magnitude)
    trunc = build_truncation(uv, pot.zero, mag)
    reports.append(compare(op, uv, eu, trunc, "truncation", {
        "r": mag,
        "grad_ratio": modulus_gradient_ratio(op, uv, trunc, pot.zero)}))
    shell = compare(op, uv, eu, build_shell(uv, pot.zero, mag),
                    "constant-r-shell", {"r": mag})
    if not shell.admissible:
        shell.note = ("boundary modulus is not constant; shell competitor "
                      "not admissible, energy comparison skipped")
    reports.append(shell)
    if u.m == 1:
        zero = float(pot.zero[0])
        bsup = float(uv[0, op.n_int:].max())
        umax = float(uv[0].max())
        level = umax if umax <= bsup else select_truncation_level(
            uv, zero, bsup - zero, pot)
        rep = compare(op, uv, eu, build_min_truncation(uv, level),
                      "min-truncation", {"level": level})
        if level >= umax:
            rep.note = "interior never exceeds boundary; comparison is trivial"
        reports.append(rep)
    return reports
