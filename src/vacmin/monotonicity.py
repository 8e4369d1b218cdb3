"""Stress-energy tensor analysis: algebraic identities, the radial flux
balance, and the monotone normalized ball energies.

The tensor is T_ij = sum_c d_i(u_c) d_j(u_c) - delta_ij (1/2 |grad u|^2 + W(u)).
For solutions it is divergence free, which the radial flux balance tests in
integrated form. Two exact pointwise identities hold for any field: its
trace equals -((n-2)/2 |grad u|^2 + n W), and T + e*I is the gradient Gram
matrix, hence positive semidefinite. Monotonicity of the normalized
quantities is verified as discrete nondecrease over sampled radii, never
via the derivative form. The Pohozaev balance forms T on a centred slice
of u's values, with no field object; it and ``stress_tensor`` form T
through one helper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dfield

import numpy as np

from . import _kernels
from .field import (Grid, InvariantViolation, VectorField, ball_integrals,
                    centred, gradient_sq, interpolate, partial_derivatives,
                    sphere_area, sphere_means, sphere_points)
from .minimizer import _modica, el_residual
from .potentials import Potential


class NotASolution(InvariantViolation, ValueError):
    """The field's Euler-Lagrange residual is too large for solution-only
    analysis."""


class StressTensorField:
    """Symmetric n x n tensor per node, stored as (n, n, *grid.shape), and
    the energy density e it was formed with, shape grid.shape."""

    def __init__(self, grid: Grid, values: np.ndarray, density: np.ndarray):
        if values.shape != (grid.n, grid.n) + grid.shape:
            raise ValueError("tensor values must have shape (n, n, *grid.shape)")
        self.grid = grid
        self.values = values
        self.density = density


def _tensor(P: np.ndarray, w: np.ndarray):
    """(T, e) from the derivative stack P, shape (n, m, *shape), and the
    potential's values w."""
    n, m = P.shape[:2]
    gsq = _kernels.sum_sq(P[ax, c] for c in range(m) for ax in range(n))
    e = _kernels.density(gsq, w)
    T = np.einsum("ic...,jc...->ij...", P, P)
    for i in range(n):
        T[i, i] -= e
    return T, e


def stress_tensor(u: VectorField, pot: Potential) -> StressTensorField:
    T, e = _tensor(partial_derivatives(u), pot.value_field(u.values))
    return StressTensorField(u.grid, T, e)


def positivity_check(T: StressTensorField) -> float:
    """min over interior nodes of the smallest eigenvalue of T + e*I, where
    e is the energy density. Equals the Gram matrix of the gradient, so the
    result is >= 0 up to roundoff for every field."""
    g = T.grid
    M = T.values + np.einsum("ij,...->ij...", np.eye(g.n), T.density)
    sel = g.mask == 1
    stack = np.moveaxis(M[..., sel], (0, 1), (-2, -1))  # (N, n, n)
    eigs = np.linalg.eigvalsh(stack)
    return float(eigs.min())


def pohozaev_balance(u: VectorField, pot: Potential, R: float, K: int = 1024):
    """Radial flux balance over B_R.

    Returns (volume_side, boundary_side, gap) where volume_side is the ball
    integral of tr T (by radial slice quadrature, which shares the boundary
    side's interpolation accuracy), boundary_side is R times the sphere
    integral of the normal-normal tensor component, and
    gap = boundary_side + R * sphere integral of the energy density
    (nonnegative up to discretization since the normal-normal component
    dominates -e).

    T and e are formed only on u's centred sub-cube of half-width
    ceil(R/h) + 2: the cells that interpolation at radii <= R reads, and
    one node more, so that every node read has the centered differences it
    has on the whole cube, bit for bit.
    """
    g = u.grid
    if not R > 0 or R + g.h > g.r_max:
        raise ValueError(f"R={R} not positive or too close to the grid edge")
    v = centred(u.values, math.ceil(R / g.h) + 2, g.n)
    T, e = _tensor(_kernels.derivatives(v, g.h), pot.value_field(v))
    trace = np.einsum("ii...->...", T)
    nq = min(256, max(48, int(16 * R)))
    nodes, weights = np.polynomial.legendre.leggauss(nq)
    unit = sphere_points(g.n, 1.0, K)
    radii = 0.5 * R * (nodes + 1.0)
    volume_side = 0.0
    for r_i, w, mean in zip(radii, weights,
                            sphere_means(g, trace, radii, unit)):
        volume_side += 0.5 * R * w * float(mean) * sphere_area(g.n, r_i)

    pts = R * unit
    nu = pts / R
    tvals = interpolate(g, T, pts)  # (n, n, K)
    nn = np.einsum("ki,ijk,kj->k", nu, tvals, nu)
    area = sphere_area(g.n, R)
    boundary_side = R * float(nn.mean()) * area

    evals = interpolate(g, e, pts)
    gap = boundary_side + R * float(evals.mean()) * area
    return volume_side, boundary_side, gap


@dataclass
class MonotonicityReport:
    radii: list
    f_values: list                  # int_{B_R} ((n-2)/2 |grad u|^2 + n W)
    energies: list                  # int_{B_R} e
    weak: list                      # R^{2-n} f(R)
    strong_f: list                  # R^{1-n} f(R)
    strong_e: list                  # R^{1-n} E(R)
    weak_violations: list           # (index, drop magnitude) beyond tolerance
    strong_f_violations: list
    strong_e_violations: list
    modica: float
    residual: float
    tolerance: float
    strong_applicable: bool
    units: dict = dfield(default_factory=lambda: {
        "radii": "length", "f_values": "energy", "energies": "energy"})

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def _violations(seq, tol):
    out = []
    for i in range(len(seq) - 1):
        drop = seq[i] - seq[i + 1]
        if drop > tol:
            out.append((i, float(drop)))
    return out


def monotone_quantities(u: VectorField, pot: Potential, radii,
                        resid_tol: float = 1e-3,
                        c_m: float = 1.0) -> MonotonicityReport:
    """The three normalized ball-energy sequences and their per-step
    nondecrease checks, tolerance delta_m = c_m * h per step.

    Requires the field to solve the system to resid_tol; the strong
    (R^{1-n}-normalized) checks are only marked applicable when the Modica
    gradient bound holds within the same delta_m.
    """
    g = u.grid
    radii = [float(r) for r in radii]
    resid = el_residual(u, pot)
    if resid > resid_tol:
        raise NotASolution(
            f"residual {resid:.3g} exceeds {resid_tol:.3g}; monotone "
            "quantities are only meaningful for solutions")
    n = g.n
    gsq = gradient_sq(u).values
    w = pot.value_field(u.values)
    fdens = 0.5 * (n - 2) * gsq + n * w
    edens = _kernels.density(gsq, w)
    # one set of ball weights per radius serves both integrals, each with
    # the bits of integrate_ball
    f_vals, e_vals = ball_integrals(g, [fdens, edens], radii)
    r = np.asarray(radii)
    weak = (f_vals * r ** (2 - n)).tolist()
    strong_f = (f_vals * r ** (1 - n)).tolist()
    strong_e = (e_vals * r ** (1 - n)).tolist()
    tol = c_m * g.h
    mod = _modica(gsq, w, g.mask)
    return MonotonicityReport(
        radii=radii,
        f_values=f_vals.tolist(),
        energies=e_vals.tolist(),
        weak=weak,
        strong_f=strong_f,
        strong_e=strong_e,
        weak_violations=_violations(weak, tol),
        strong_f_violations=_violations(strong_f, tol),
        strong_e_violations=_violations(strong_e, tol),
        modica=mod,
        residual=resid,
        tolerance=tol,
        strong_applicable=bool(mod <= tol),
    )
