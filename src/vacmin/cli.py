"""Experiment orchestration CLI.

    vacmin <subcommand> --config experiment.yaml [--out DIR] [--seed N]

Subcommands: minimize, energy-profile, bad-discs, monotonicity,
max-principle, competitor, bootstrap, verify-potential.

Outputs are deterministic given the config: identical runs produce
byte-identical JSON/CSV/binary artifacts (wall-clock timings are kept out
of the artifacts for that reason). Exit codes: 0 ok, 2 config error,
3 solver divergence/non-convergence, 4 invariant violation.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import json
import os
import sys

import numpy as np

from . import boundary as bdata
from .config import ConfigError, ExperimentConfig
from .field import (InvariantViolation, VectorField, energy_density,
                    export_sphere_csv, load_field, save_field)
from .minimizer import SolveReport, SolverDivergence, minimize
from .potentials import verify_assumptions


def _lazy(name: str):
    """The submodule ``name`` of this package, run when one of its
    attributes is first read (importlib.util.LazyLoader). It is in
    sys.modules and the package namespace from the start, like an
    imported module, so whatever looks modules up there finds it; a
    subcommand that never reads it never pays for running it."""
    full = f"{__package__}.{name}"
    if full not in sys.modules:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return sys.modules[full]


# the analysis layers; `minimize` runs none of them
competitor = _lazy("competitor")
discs = _lazy("discs")
growth = _lazy("growth")
monotonicity = _lazy("monotonicity")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_INVARIANT = 4


def _source_sha256(package: str) -> str:
    """The sha256 of every ``*.py`` in the directory ``package``, name and
    contents, in sorted name order."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as f:
                digest.update(name.encode() + b"\0"
                              + hashlib.sha256(f.read()).digest())
    return digest.hexdigest()


# part of every saved solve's key: a field saved by any other vacmin source,
# even one that differs only in a comment, is solved again
SOURCE_SHA256 = _source_sha256(os.path.dirname(os.path.abspath(__file__)))


def _numpy_build() -> dict:
    """numpy's version, its SIMD baseline and the BLAS it was built with:
    another build may round a solve or a covering differently."""
    try:
        info = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.26 only prints its configuration
        info = {}
    blas = info.get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__,
            "simd_baseline": info.get("SIMD Extensions", {}).get("baseline"),
            "blas": [blas.get("name"), blas.get("version")]}


# part of every saved solve's key and recorded beside the field: a field
# saved under another numpy build is solved again
NUMPY_BUILD = _numpy_build()


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True, allow_nan=False)
        f.write("\n")


def _report(cfg: ExperimentConfig, body: dict) -> dict:
    return {"config_sha256": cfg.sha256(), **body}


class _NotConverged(Exception):
    """A solve stopped short of its tolerance; ``main`` exits 3."""


def _boundary_params(cfg: ExperimentConfig, defaults: dict) -> dict:
    """The boundary block a solve reads: the config's own keys over
    ``defaults`` over the config's seed."""
    return {"seed": cfg.seed, **defaults, **cfg.boundary}


def _solve(cfg: ExperimentConfig, out: str, reuse: bool = True, **defaults):
    """Solve the config's boundary data, ``defaults`` filling what it leaves
    out. With ``reuse``, out/field.bin stands in for the solve when its
    sidecar's ``solve_sha256`` is the sha256 of exactly what the solve reads,
    of ``SOURCE_SHA256`` and of ``NUMPY_BUILD``, and its payload checks
    out. A solve of the config's own data (its boundary block overrides
    every default) is saved there with solve.json.
    A solve short of its tolerance, saved or not, raises ``_NotConverged``."""
    pot, path = cfg.make_potential(), os.path.join(out, "field.bin")
    params = _boundary_params(cfg, defaults)
    inputs = {"n": cfg.n, "m": cfg.m, "h": cfg.h, "r_max": cfg.r_max,
              "potential": cfg.potential, "boundary": params,
              "solver": cfg.solver, "source_sha256": SOURCE_SHA256,
              "build": NUMPY_BUILD}
    key = hashlib.sha256(
        json.dumps(inputs, sort_keys=True).encode()).hexdigest()
    u = None
    if reuse:
        with contextlib.suppress(OSError, ValueError, KeyError, TypeError):
            with open(path + ".json") as f:
                side = json.load(f)
            if side["solve_sha256"] == key:
                u, rep = load_field(path), SolveReport(**side["solve"])
    if u is None:
        grid = cfg.make_grid()
        u0 = bdata.initial_field(grid, pot, bdata.make_boundary(
            params["tag"], pot, params))
        u, rep = minimize(u0, pot, tol=cfg.solver["tol"],
                          max_iter=int(cfg.solver["max_iter"]))
        if defaults.keys() <= cfg.boundary.keys():
            save_field(path, u, solve_sha256=key, solve=rep.to_dict(),
                       build=NUMPY_BUILD)
            _write_json(os.path.join(out, "solve.json"), _report(cfg, {
                "solve": rep.to_dict(),
                "units": {"energy": "energy",
                          "residual": "energy density slope"}}))
    if not rep.converged:
        raise _NotConverged(f"solve did not converge: iterations="
                            f"{rep.iterations} residual={rep.residual:.6g} "
                            f"tol={rep.tol:.6g}")
    return u.grid, pot, u, rep


def _default_radii(cfg: ExperimentConfig, margin: float = 0.0):
    radii = cfg.analysis["radii"]
    if radii:
        return [float(r) for r in radii]
    top = cfg.r_max - margin
    return [top * k / 8.0 for k in range(1, 9)]


def cmd_minimize(cfg: ExperimentConfig, out: str) -> int:
    rep = _solve(cfg, out, reuse=False)[3]
    print(f"minimize: iterations={rep.iterations} "
          f"energy={rep.energy:.12g} residual={rep.residual:.3g}")
    return EXIT_OK


def cmd_energy_profile(cfg: ExperimentConfig, out: str) -> int:
    grid, pot, u, rep = _solve(cfg, out)
    radii = _default_radii(cfg)
    prof = growth.energy_profile(u, pot, radii)
    n = grid.n
    q = pot.exponent
    tau = cfg.analysis["tau"]
    if tau is None:
        tau = 2.0 / (q * n) * 0.9
    l2 = growth.rescaled_l2_smallness(u, pot, radii)
    diag = (growth.growth_diagnostic(radii, prof.energies, n, q,
                                     rescaled_l2=l2)
            if len(radii) >= 3 else None)
    csv_path = os.path.join(out, "energy_profile.csv")
    with open(csv_path, "w") as f:
        f.write("R,E,E_norm,E_norm_tau\n")
        for r, e in zip(prof.radii, prof.energies):
            f.write(f"{r:.17e},{e:.17e},{e / r ** (n - 1):.17e},"
                    f"{e / r ** (n - 1 - tau):.17e}\n")
    body = {"profile": prof.to_dict(), "tau": tau,
            "solve": rep.to_dict()}
    if diag is not None:
        body["diagnostic"] = diag.to_dict()
    _write_json(os.path.join(out, "energy_profile.json"), _report(cfg, body))
    print(f"energy-profile: {len(radii)} radii, E({radii[-1]:g})="
          f"{prof.energies[-1]:.12g}")
    return EXIT_OK


def cmd_bad_discs(cfg: ExperimentConfig, out: str) -> int:
    # the good radius is scanned in (R, 2R), so R needs 2R + h <= r_max;
    # energy-profile takes radii up to r_max, so validate() cannot check it
    radii = cfg.analysis["radii"] or [cfg.r_max / 4.0]
    for R in radii:
        if 2.0 * R + cfg.h > cfg.r_max:
            raise ConfigError(f"analysis.radii: R={R} out of range for "
                              f"bad-discs: need 2R + h <= r_max")
    grid, pot, u, rep = _solve(cfg, out)
    e = energy_density(u, pot)
    eps = cfg.analysis["eps"]
    alpha = cfg.analysis["alpha"]
    K = int(cfg.analysis["sphere_points"])
    reports = []
    for i, R in enumerate(radii):
        rep_i = discs.bad_disc_pipeline(
            e, float(R), eps, alpha=alpha,
            samples=int(cfg.analysis["samples"]), K=K)
        reports.append(rep_i.to_dict())
        export_sphere_csv(os.path.join(out, f"sphere_samples_{i}.csv"),
                          rep_i.points, rep_i.values, rep_i.covered)
    _write_json(os.path.join(out, "bad_discs.json"),
                _report(cfg, {"reports": reports, "solve": rep.to_dict()}))
    counts = [r["count"] for r in reports]
    print(f"bad-discs: counts={counts}")
    return EXIT_OK


def cmd_monotonicity(cfg: ExperimentConfig, out: str) -> int:
    grid, pot, u, rep = _solve(cfg, out)
    margin = 2 * grid.h
    radii = _default_radii(cfg, margin=margin)
    mono = monotonicity.monotone_quantities(
        u, pot, radii, resid_tol=max(10 * cfg.solver["tol"], 1e-3),
        c_m=cfg.analysis["c_m"])
    _write_json(os.path.join(out, "monotonicity.json"),
                _report(cfg, {"monotonicity": mono.to_dict(),
                              "solve": rep.to_dict()}))
    csv_path = os.path.join(out, "monotonicity.csv")
    with open(csv_path, "w") as f:
        f.write("R,f,f_weak_norm,f_strong_norm,E_strong_norm\n")
        for r, fv, wv, sf, se in zip(mono.radii, mono.f_values, mono.weak,
                                     mono.strong_f, mono.strong_e):
            f.write(f"{r:.17e},{fv:.17e},{wv:.17e},{sf:.17e},{se:.17e}\n")
    bad = len(mono.weak_violations)
    print(f"monotonicity: weak violations={bad} modica={mono.modica:.3g} "
          f"strong_applicable={mono.strong_applicable}")
    return EXIT_OK if bad == 0 else EXIT_INVARIANT


def cmd_max_principle(cfg: ExperimentConfig, out: str) -> int:
    pot = cfg.make_potential()
    r, r0 = cfg.analysis["r"], pot.monot_radius
    r = r0 / 4.0 if r is None else float(r)
    # the default r0/4 is in range, so only a set analysis.r fails here
    if not 0 < r < r0 / 2:
        raise ConfigError(f"analysis.r: need r in (0, r0/2) = "
                          f"(0, {r0 / 2:.6g})")
    try:
        competitor.max_principle_assumptions(pot, r, seed=cfg.seed)
    except ValueError as exc:
        raise ConfigError(f"potential: {exc}") from None
    # data of magnitude r where the config sets none; checked on the grid's
    # boundary nodes, as max_principle_check checks the solve's, before it
    params = _boundary_params(cfg, {"magnitude": r})
    grid = cfg.make_grid()
    g = VectorField.from_function(grid, bdata.make_boundary(
        params["tag"], pot, params), m=pot.m)
    try:
        competitor.boundary_within(g, pot.zero, r)
    except ValueError as exc:
        raise ConfigError(f"boundary.magnitude: {exc}") from None
    u, rep = _solve(cfg, out, magnitude=r)[2:]
    verdict = competitor.max_principle_check(u, pot, r, rep, seed=cfg.seed)
    _write_json(os.path.join(out, "max_principle.json"),
                _report(cfg, {"verdict": verdict.to_dict(),
                              "units": {"r": "field modulus",
                                        "interior_sup": "field modulus"}}))
    print(f"max-principle: holds={verdict.holds} interior_sup="
          f"{verdict.interior_sup:.6g} r={verdict.r:.6g}")
    return EXIT_OK if verdict.holds else EXIT_INVARIANT


def cmd_competitor(cfg: ExperimentConfig, out: str) -> int:
    # standard_suite puts its annulus competitor at s_r = r_max - 2h, and
    # needs s_r >= 1 + 2h
    if cfg.r_max - 2 * cfg.h < 1.0 + 2 * cfg.h:
        raise ConfigError("r_max: too small for competitor: "
                          "need r_max - 2h >= 1 + 2h")
    # the truncation and shell competitors cap the modulus at |magnitude|:
    # a negative magnitude flips the data's sign, not its modulus
    mag = abs(float(cfg.boundary.get("magnitude", bdata.MAGNITUDE)))
    if mag == 0:
        raise ConfigError("boundary.magnitude: must be nonzero for "
                          "competitor: it caps the competitors' modulus")
    grid, pot, u, rep = _solve(cfg, out)
    reports = competitor.standard_suite(u, pot, mag)
    dq = competitor.quadrature_slack(grid,
                                     scale=cfg.analysis["delta_q_scale"])
    ok = all(r.difference >= -dq for r in reports if r.admissible)
    _write_json(os.path.join(out, "competitors.json"),
                _report(cfg, {"delta_q": dq,
                              "reports": [r.to_dict() for r in reports],
                              "solve": rep.to_dict(),
                              "units": {"delta_q": "energy",
                                        "difference": "energy"}}))
    print("competitor: " + " ".join(
        f"{r.tag}:diff={r.difference:.6g}" for r in reports))
    return EXIT_OK if ok else EXIT_INVARIANT


def cmd_bootstrap(cfg: ExperimentConfig, out: str) -> int:
    pot = cfg.make_potential()
    n, q = cfg.n, pot.exponent
    k_star, iters = growth.bootstrap_fixed_point(n, q, tol=1e-14)
    ks = np.linspace(0.25, n - 1, 7)
    _write_json(os.path.join(out, "bootstrap.json"), _report(cfg, {
        "n": n, "q": q,
        "fixed_point": k_star,
        "closed_form": n - 1 - 2.0 / (q * n),
        "iterations": iters,
        "contraction_factor": 2.0 / (q * n + 2.0),
        "map_samples": [[float(k), growth.bootstrap_map(float(k), n, q)]
                        for k in ks],
        "units": {"fixed_point": "dimensionless growth exponent"},
    }))
    print(f"bootstrap: fixed_point={k_star:.15g} iterations={iters}")
    return EXIT_OK


def cmd_verify_potential(cfg: ExperimentConfig, out: str) -> int:
    pot = cfg.make_potential()
    rep = verify_assumptions(pot, samples=int(cfg.analysis["samples"]) * 8,
                             seed=cfg.seed)
    _write_json(os.path.join(out, "potential_assumptions.json"),
                _report(cfg, rep.to_dict()))
    flags = (rep.positive_ok, rep.lower_bound_ok, rep.radial_monotone_ok)
    print(f"verify-potential: positive={rep.positive_ok} "
          f"lower_bound={rep.lower_bound_ok} monotone={rep.radial_monotone_ok} "
          f"hessian_pd={rep.hessian_pd_ok}")
    return EXIT_OK if all(flags) else EXIT_INVARIANT


_COMMANDS = {
    "minimize": cmd_minimize,
    "energy-profile": cmd_energy_profile,
    "bad-discs": cmd_bad_discs,
    "monotonicity": cmd_monotonicity,
    "max-principle": cmd_max_principle,
    "competitor": cmd_competitor,
    "bootstrap": cmd_bootstrap,
    "verify-potential": cmd_verify_potential,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="vacmin", description=__doc__)
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="experiment YAML")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    args = parser.parse_args(argv)

    try:
        cfg = ExperimentConfig.from_yaml(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        out = args.out or cfg.out
        os.makedirs(out, exist_ok=True)
        return _COMMANDS[args.command](cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _NotConverged as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except SolverDivergence as exc:
        print(f"solver diverged: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
