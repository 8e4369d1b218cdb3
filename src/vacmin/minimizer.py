"""Energy minimization under pinned Dirichlet data.

Preconditioned steepest descent: the direction is C g, C one multigrid
V-cycle for h^n (-lap_0 + sigma) on the ball's interior
(``_kernels.Multigrid``), sigma >= 0 a constant stand-in for the
potential's curvature taken once from the starting field, with the
preconditioned second
Barzilai-Borwein step size
(BB2, t = <s, y>/<y, C y>; Molina and Raydan 1996) and an Armijo
backtracking safeguard (Raydan 1997), so the energy is nonincreasing
iterate to iterate. The Dirichlet gradient is carried from iterate to
iterate by the exact recurrence of the quadratic part and re-evaluated
directly before any claim is made on it. Convergence is declared on the
sup-norm of the directly evaluated discrete Euler-Lagrange residual
lap(u) - gradW(u), not on energy stall: the residual is the checkable
certificate that the output solves the system, and C enters only the
direction, never the residual. Inner products, the residual and C make
no BLAS call, so iterates do not depend on the thread count. Global minimality
over all perturbations is not certifiable numerically; reports state that
limitation and the competitor module tries to defeat it.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield, fields

import numpy as np

from . import _kernels
from .field import INTERIOR, VectorField, gradient_sq
from .potentials import Potential

MINIMALITY_NOTE = ("stationarity certified via the Euler-Lagrange residual; "
                   "global minimality is not numerically certifiable and is "
                   "checked only against constructed competitors")


class SolverDivergence(RuntimeError):
    """Non-finite energy during the line search."""


@dataclass
class SolveReport:
    iterations: int
    energy: float
    residual: float
    converged: bool
    tol: float
    step_min: float
    step_max: float
    step_last: float
    backtracks: int
    shift: float
    note: str = MINIMALITY_NOTE
    energy_trace: list = dfield(default_factory=list, repr=False)

    def to_dict(self) -> dict:
        """Every field but the energy trace, which stays in memory."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "energy_trace"}


def discrete_energy(u: VectorField, pot: Potential) -> float:
    """Edge-based quadrature of the energy over the ball mask, evaluated by
    an ``InteriorOperator`` that pins u's own boundary values, so a
    competitor with other boundary values still gets its energy."""
    return _kernels.energy_only(u.grid, u.values, pot)


def discrete_energy_gradient(u: VectorField, pot: Potential) -> VectorField:
    """Exact gradient of discrete_energy w.r.t. interior values:
    cell * (-lap(u) + gradW(u)) there, zero on boundary/exterior nodes."""
    return u.with_values(_kernels.energy_and_grad(u.grid, u.values, pot)[1])


def _residual_from_grad(grad: np.ndarray, cell: float) -> float:
    return float(np.sqrt(_kernels.norm2(grad).max())) / cell


def el_residual(u: VectorField, pot: Potential) -> float:
    """sup over interior nodes of |lap(u) - gradW(u)| (Euclidean in R^m),
    from the gradient of an ``InteriorOperator`` that pins u's own boundary
    values: on a solver output it is the reported residual, bit for bit."""
    op = _kernels.InteriorOperator(u.grid, u.values, pot)
    return _residual_from_grad(op.gradient(op.gather(u.values))[0],
                               u.grid.cell)


def _modica(gsq: np.ndarray, w: np.ndarray, mask: np.ndarray) -> float:
    """max over interior nodes of 1/2 |grad u|^2 - W(u)."""
    diff = 0.5 * gsq - w
    return float(diff[mask == INTERIOR].max())


def modica_check(u: VectorField, pot: Potential) -> float:
    """max over interior nodes of 1/2 |grad u|^2 - W(u); <= 0 means the
    gradient bound holds discretely."""
    return _modica(gradient_sq(u).values, pot.value_field(u.values),
                   u.grid.mask)


def _bb2(t: float, d_prev: np.ndarray, g_prev: np.ndarray,
         d: np.ndarray, grad: np.ndarray) -> float:
    """The preconditioned BB2 step <s, y>/<y, C y> after the step
    s = -t d_prev, with y = grad - g_prev and C y = d - d_prev (d = C grad);
    t itself when <s, y> <= 0."""
    y = grad - g_prev
    sy = -t * _kernels.dot(d_prev, y)
    ycy = _kernels.dot(y, d - d_prev)
    return sy / ycy if sy > 0.0 and ycy > 0.0 else t


def _curvature_shift(pot: Potential, grid, x: np.ndarray) -> float:
    """max(0, <phi, k phi>/<phi, phi>) for the interior values x, shape
    (m, N): k is tr D^2W(x) / m per node, from central second differences
    of W with step 2^-10, and phi is the lowest mode of the cube's box
    (``_kernels.lowest_mode``), a smooth mode, positive, largest at the
    centre. So the shift is the curvature such a mode sees, where C acts
    most like the inverse of the Hessian h^n (-lap_0 + D^2W). phi is
    small at the ball's edge, where u0 carries its data and where the
    curvature of a degenerate W (power q > 2) is far above what the
    minimizer's interior keeps, so that layer cannot set the shift. It is
    formed from weighted sums, sum phi^2 W(x + eps e_c)
    + sum phi^2 W(x - eps e_c) - 2 sum phi^2 W(x), perturbing one row of x
    in place and restoring it from a copy."""
    m = x.shape[0]
    eps = 2.0 ** -10
    weight = _kernels.lowest_mode(grid)
    weight *= weight

    def w_sum() -> float:
        return float(np.einsum("i,i->", weight, pot.value_field(x)))

    total = -2.0 * m * w_sum()
    for c in range(m):
        row = x[c].copy()
        for step in (eps, -eps):
            np.add(row, step, out=x[c])
            total += w_sum()
        x[c] = row
    mean = total / (eps * eps * m * float(np.sum(weight)))
    return mean if 0.0 < mean < np.inf else 0.0


def minimize(u0: VectorField, pot: Potential, tol: float = 1e-6,
             max_iter: int = 50_000):
    """Descend from u0 (which carries the boundary data) until the EL
    residual drops below tol. Returns (VectorField, SolveReport).

    The iteration runs on interior values only. The search direction is
    d = C g, C one multigrid V-cycle for h^n (-lap_0 + sigma) on the
    ball's interior (``_kernels.Multigrid``), symmetric positive definite.
    The shift sigma stands in for the D^2W part of the Hessian
    h^n (-lap_0 + D^2W), which C holds only as a constant on every
    level's diagonal: it is the mean of tr D^2W(u0) / m
    over the interior, from central second differences of W, weighted by
    the square of C's lowest mode and clamped at 0 (``_curvature_shift``;
    1 up to rounding for the quadratic family), computed once and
    reported as ``shift``. Fixed for the
    solve, it keeps BB2's secant pair exact. The step is the
    preconditioned BB2 step t = <s, y>/<y, C y> (s the last step, y the
    change of the gradient, C y the change of d), starting from t = 1,
    halved, at most 60 times, until the Armijo test with constant 1e-4 and
    slope <g, d> holds. Each Armijo trial is judged on the exact energy
    change along d (``InteriorOperator.line``), which also applies the
    operator once for A d. Since the Dirichlet part is quadratic, the
    Dirichlet gradient at the accepted iterate is updated as grad_d - t A d,
    so an iteration applies the stencil once and C once. The updated
    residual only decides when to look (its sup is not taken while the sum
    of squares over the N interior nodes exceeds 2 N (tol h^n)^2, since the
    sup then exceeds tol): once it reaches tol, and on every
    exit, the gradient is evaluated directly, and ``converged`` and the
    reported ``residual`` come from that direct gradient alone, so the
    residual stays a certificate. The initial and final energies are the
    operator's own ``energy``, so they equal ``discrete_energy`` of u0 and
    of the result bit for bit, and ``energy_trace`` is the initial energy
    plus the accepted changes."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    grid = u0.grid
    cell = grid.cell

    op = _kernels.InteriorOperator(grid, u0.values, pot)
    x = op.gather(u0.values)
    energy = op.energy(x)
    if not np.isfinite(energy):
        raise SolverDivergence("initial energy is not finite")
    shift = _curvature_shift(pot, grid, x)
    precondition = _kernels.Multigrid(op, shift)
    grad, grad_d = op.gradient(x)
    direct = True
    w = pot.value_field(x)

    # C approximates the inverse of the shifted Dirichlet Hessian, so t = 1
    # is close to the Newton step of the quadratic part
    t = 1.0
    g_prev = d_prev = None
    steps = []
    energies = [energy]
    backtracks = 0
    iterations = 0
    converged = False
    # sum_i |g_i|^2 <= N max_i |g_i|^2, so above this bound the sup residual
    # exceeds tol; the factor 2 is far beyond the rounding of either side
    sq_sum_max = 2.0 * op.n_int * (tol * cell) ** 2

    for _ in range(max_iter):
        if _kernels.dot(grad, grad) <= sq_sum_max:
            residual = _residual_from_grad(grad, cell)
            if residual <= tol and not direct:
                grad, grad_d = op.gradient(x)
                direct = True
                residual = _residual_from_grad(grad, cell)
            if residual <= tol:
                converged = True
                break
        d = precondition(grad)
        gd = _kernels.dot(grad, d)
        if g_prev is not None:
            t = _bb2(t, d_prev, g_prev, d, grad)

        decrement, ad = op.line(x, d, grad_d, w)
        accepted = False
        tt = t
        # roundoff slack keeps the line search alive once per-step decreases
        # approach the floating-point floor of the total energy
        slack = 4.0 * np.finfo(float).eps * max(1.0, abs(energy))
        for _ in range(60):
            de, trial, w_trial = decrement(tt)
            if not np.isfinite(de):
                raise SolverDivergence(f"non-finite energy at step {tt:g}")
            if de <= -1e-4 * tt * gd + slack:
                accepted = True
                break
            tt *= 0.5
            backtracks += 1
        if not accepted:
            break  # stalled below machine precision; report non-convergence

        g_prev, d_prev = grad, d
        x, w = trial, w_trial
        grad_d -= tt * ad
        grad = grad_d + cell * pot.grad_field(x)
        direct = False
        energy += de
        energies.append(energy)
        steps.append(tt)
        t = tt
        iterations += 1

    if not direct:
        grad, _ = op.gradient(x)
    residual = _residual_from_grad(grad, cell)
    report = SolveReport(
        iterations=iterations,
        energy=op.energy(x),
        residual=residual,
        converged=converged,
        tol=tol,
        step_min=float(min(steps)) if steps else 0.0,
        step_max=float(max(steps)) if steps else 0.0,
        step_last=float(steps[-1]) if steps else 0.0,
        backtracks=backtracks,
        shift=shift,
        energy_trace=energies,
    )
    return u0.with_values(op.scatter(u0.values, x)), report
