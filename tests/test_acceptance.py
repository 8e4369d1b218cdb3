"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured time. Tolerances are fixed here, not tuned at runtime.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import hashlib
import math
import os
import time

import numpy as np
import pytest
import yaml

from conftest import (STANDARD_H, interior_sup, random_interior_field,
                      stress_divergence)
from vacmin.boundary import angular, initial_field, random_smooth
from vacmin.cli import main as cli_main
from vacmin.competitor import max_principle_check, quadrature_slack, standard_suite
from vacmin.discs import (bad_disc_pipeline, clearing_out_threshold,
                          clearing_out_violations, sphere_holder_constant)
from vacmin.field import (Grid, VectorField, energy_density, gradient_sq,
                          integrate_ball, sphere_area, sphere_points)
from vacmin.growth import bootstrap_fixed_point, bootstrap_map, comparison_bound
from vacmin.minimizer import (discrete_energy, discrete_energy_gradient,
                              el_residual, minimize, modica_check)
from vacmin.monotonicity import (monotone_quantities, pohozaev_balance,
                                 positivity_check, stress_tensor)
from vacmin.potentials import power, quadratic


class Budget:
    def __init__(self, label, seconds):
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        dt = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[acceptance] {self.label}: {status} ({dt:.2f}s / "
              f"budget {self.seconds:.0f}s)")
        if exc_type is None:
            assert dt < self.seconds, f"{self.label} exceeded its time budget"
        return False


@pytest.fixture(scope="module")
def growth_family():
    """n=2, m=2 angular-data solves at r_max in {4, 8, 16}."""
    runs = []
    pot = quadratic([0.0, 0.0])
    for r_max in (4.0, 8.0, 16.0):
        grid = Grid(2, STANDARD_H, r_max)
        u0 = initial_field(grid, pot, angular(pot, 0.9, windings=1))
        u, rep = minimize(u0, pot, tol=1e-6, max_iter=200_000)
        assert rep.converged
        runs.append((grid, pot, u))
    return runs


def test_criterion_01_bootstrap_arithmetic():
    with Budget("1 bootstrap arithmetic", 1.0):
        k2, _ = bootstrap_fixed_point(2, 2.0, tol=1e-15)
        assert abs(k2 - 0.5) < 1e-12
        k3, _ = bootstrap_fixed_point(3, 2.0, tol=1e-15)
        assert abs(k3 - 5.0 / 3.0) < 1e-12
        rng = np.random.default_rng(1)
        for n in (2, 3):
            for q in (2.0, 3.0, 4.0):
                for _ in range(20):
                    k1, k2_ = rng.uniform(0.1, n - 1, 2)
                    lam = rng.uniform(0, 1)
                    lhs = bootstrap_map(lam * k1 + (1 - lam) * k2_, n, q)
                    rhs = (lam * bootstrap_map(k1, n, q)
                           + (1 - lam) * bootstrap_map(k2_, n, q))
                    assert abs(lhs - rhs) < 1e-12
                for k in np.linspace(0.1, n - 1, 7):
                    # the slice-threshold decay rate that balances the
                    # two competitor energy exponents
                    b = q * (n - k) / (q * n + 2.0)
                    assert abs((n - 1 - 2 * b / q) - (k - 1 + b * n)) < 1e-12
                    assert abs(bootstrap_map(float(k), n, q)
                               - (n - 1 - 2 * b / q)) < 1e-12


def test_criterion_02_gradient_oracle():
    with Budget("2 gradient oracle", 10.0):
        grid = Grid(2, 0.1, 2.0)
        pot = power([0.0, 0.0], 4)
        base = angular(pot, 0.5)
        for trial in range(20):
            u = initial_field(grid, pot, base)
            u.values += random_interior_field(grid, 2, 300 + trial).values
            phi = random_interior_field(grid, 2, 400 + trial, scale=1.0)
            g = discrete_energy_gradient(u, pot)
            t = 1e-5
            ep = discrete_energy(u.with_values(u.values + t * phi.values), pot)
            em = discrete_energy(u.with_values(u.values - t * phi.values), pot)
            fd = (ep - em) / (2 * t)
            an = float(np.vdot(g.values, phi.values))
            assert abs(fd - an) / max(1e-12, abs(an)) < 1e-6


def test_criterion_03_tensor_identities():
    with Budget("3 algebraic tensor identities", 10.0):
        grid = Grid(2, 0.1, 2.0)
        pot = power([0.0, 0.0], 4)
        sel = grid.mask == 1
        n = grid.n
        for seed in range(10):
            u = random_interior_field(grid, 2, 500 + seed)
            T = stress_tensor(u, pot)
            tr = np.einsum("ii...->...", T.values)
            gsq = gradient_sq(u).values
            w = pot.value_field(u.values)
            rhs = -(0.5 * (n - 2) * gsq + n * w)
            assert np.abs(tr - rhs)[sel].max() < 1e-12
            assert positivity_check(T) >= -1e-12


def test_criterion_04_solution_certificates():
    with Budget("4 solution certificates", 60.0):
        pot = quadratic([0.0])
        hs = [0.1, 0.05, 0.025]
        metrics = {"residual": [], "modica": [], "divT": [], "pohozaev": []}
        for h in hs:
            g = Grid(2, h, 1.0)
            u = VectorField.from_function(g, lambda x: np.exp(x[0]), m=1)
            metrics["residual"].append(el_residual(u, pot))
            metrics["modica"].append(abs(modica_check(u, pot)))
            metrics["divT"].append(interior_sup(
                stress_divergence(stress_tensor(u, pot))))
            vol, bnd, _ = pohozaev_balance(u, pot, 0.9, K=2048)
            metrics["pohozaev"].append(abs(vol - bnd))
        for name, errs in metrics.items():
            order = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
            assert order >= 1.5, (name, errs, order)


def test_criterion_05_minimality_vs_competitors(standard_runs):
    with Budget("5 minimality vs competitors", 600.0):
        for run in standard_runs:
            dq = quadrature_slack(run.grid)
            for rep in standard_suite(run.u, run.pot, run.magnitude):
                if not rep.admissible:
                    continue  # shell with non-constant boundary modulus (m=1)
                assert rep.difference >= -dq, (run.label, rep.tag)


def test_criterion_06_energy_growth(growth_family):
    with Budget("6 energy growth across doublings", 1800.0):
        norms = []
        for grid, pot, u in growth_family:
            R = grid.r_max
            e = energy_density(u, pot)
            E = integrate_ball(e, R)
            bound = comparison_bound(u, pot, R)
            dq = quadrature_slack(grid)
            assert E <= bound + dq, (R, E, bound)
            norms.append(E / R)
        for a, b in zip(norms, norms[1:]):
            assert b <= a * 1.05, norms  # nonincreasing within 5%


def test_criterion_07_clearing_out_soundness():
    with Budget("7 clearing-out soundness", 60.0):
        rng = np.random.default_rng(42)
        K = 1024
        checked_low_balls = 0
        for trial in range(50):
            R = float(rng.uniform(2.0, 8.0))
            pts = sphere_points(2, R, K)
            theta = np.arctan2(pts[:, 1], pts[:, 0])
            vals = np.zeros(K)
            for _ in range(int(rng.integers(1, 6))):
                k = int(rng.integers(1, 8))
                vals += rng.uniform(0.2, 1.0) * (
                    1.0 + np.cos(k * theta + rng.uniform(0, 2 * math.pi)))
            vals += rng.uniform(0.0, 0.2)
            eps = 0.3 * float(vals.max())
            c4 = sphere_holder_constant(pts, vals, R, 1.0)
            mu = clearing_out_threshold(eps, c4, 1.0, 2)
            assert clearing_out_violations(pts, vals, R, eps, mu) == []
            w = sphere_area(2, R) / K
            unit = pts / R
            dist = R * np.arccos(np.clip(unit @ unit.T, -1, 1))
            checked_low_balls += int(((dist <= 2.0) @ (vals * w) < mu).sum())
        assert checked_low_balls > 0  # the batch exercised the bound


def test_criterion_08_bad_disc_covering(standard_runs, growth_family):
    with Budget("8 bad-disc covering", 300.0):
        eps = 0.02
        for run in standard_runs:
            radii = [0.75, 1.5] + ([3.0] if run.grid.r_max >= 8 else [])
            e = energy_density(run.u, run.pot)
            for R in radii:
                rep = bad_disc_pipeline(e, R, eps, samples=16, K=512)
                assert rep.offdisc_sup <= eps, (run.label, R)
                assert (rep.values[~rep.covered] <= eps).all()
        # count boundedness across doubling base radii on the scaling family
        counts = []
        for grid, pot, u in growth_family:
            e = energy_density(u, pot)
            R = grid.r_max / 4.0
            rep = bad_disc_pipeline(e, R, eps, samples=16, K=512)
            assert rep.offdisc_sup <= eps
            counts.append(rep.count)
        # n = 2: the count bound is a constant, not a power of R
        cap = max(8, 2 * counts[0])
        assert max(counts) <= cap, counts


def test_criterion_09_monotonicity(standard_runs):
    with Budget("9 monotone normalized energies", 600.0):
        for run in standard_runs:
            g = run.grid
            radii = np.linspace(0.5, g.r_max - 2 * g.h, 8)
            rep = monotone_quantities(run.u, run.pot, radii,
                                      resid_tol=1e-3, c_m=1.0)
            assert rep.weak_violations == [], run.label
            if rep.strong_applicable:
                assert rep.strong_f_violations == [], run.label
                assert rep.strong_e_violations == [], run.label


def test_criterion_10_maximum_principle():
    with Budget("10 variational maximum principle", 900.0):
        pot = power([0.0, 0.0], 4, monot_radius=1.0)
        r = pot.monot_radius / 4.0
        grid = Grid(2, 0.1, 4.0)
        for seed in range(10):
            fn = random_smooth(pot, r, seed=seed)
            u0 = initial_field(grid, pot, fn)
            u, solve = minimize(u0, pot, tol=1e-6, max_iter=100_000)
            rep = max_principle_check(u, pot, r, solve, seed=seed)
            assert rep.solver_converged, seed
            assert rep.interior_sup <= r + 2 * grid.h, (seed, rep.interior_sup)
            assert rep.boundary_sup <= r * (1 + 1e-12)


def test_criterion_11_determinism(tmp_path):
    with Budget("11 determinism", 300.0):
        cfg = {
            "n": 2, "m": 2, "h": 0.1, "r_max": 3.0,
            "potential": {"family": "power", "zero": [0.0, 0.0], "q": 4},
            "boundary": {"tag": "random", "magnitude": 0.5, "seed": 9},
            "solver": {"tol": 1e-5, "max_iter": 20000},
            "analysis": {"radii": [0.75, 1.25], "eps": 0.02,
                         "sphere_points": 256},
            "seed": 9,
        }
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump(cfg))
        digests = []
        for name in ("a", "b"):
            out = tmp_path / name
            for cmd in ("minimize", "energy-profile", "bad-discs",
                        "competitor", "bootstrap"):
                assert cli_main([cmd, "--config", str(path),
                                 "--out", str(out)]) == 0
            tree = {}
            for fname in sorted(os.listdir(out)):
                with open(out / fname, "rb") as f:
                    tree[fname] = hashlib.sha256(f.read()).hexdigest()
            digests.append(tree)
        assert digests[0] == digests[1]
