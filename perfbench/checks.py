"""Output checks for the benchmark jobs.

Every check compares a program output with a computation written here,
apart from the program (a field reader for the documented binary layout, a
7-point stencil, an edge-sum energy, a Bessel closed form, geodesic disc
sums), or with a property the method must have. No check compares with a
saved copy of earlier output.

Each check is a function that returns a list of failure messages; an empty
list means the output passed. ``CHECKS`` names them all, and the tests in
``test_checks.py`` show that each one rejects a corrupted output.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import struct

import numpy as np

_HEADER = "<4sIIIIdd"  # magic, version, n, m, axis size, h, r_max
_MAGIC = b"VACF"

CHECKS = (
    "field_sha256", "el_residual", "boundary_data", "energy_matches_report",
    "energy_below_ramp", "bessel_closed_form", "bootstrap_fixed_point",
    "competitors_not_below", "uncovered_below_eps", "covered_is_disc_union",
    "center_ball_energy", "weak_nondecreasing", "monotone_within_tol",
    "stress_trace_identity", "profile_nondecreasing", "comparison_above",
    "artifacts_identical",
)


# ---------------------------------------------------------------------------
# the field file, read without the program


class Field:
    """A field read from ``field.bin``: values (m, *shape) on the cube
    [-L, L]^n with spacing h, plus the ball mask rebuilt from r_max."""

    def __init__(self, n, h, r_max, values, payload):
        self.n, self.h, self.r_max = n, h, r_max
        self.values = values
        self.payload = payload
        size = values.shape[1]
        axis = h * (np.arange(size) - (size - 1) // 2)
        coords = np.meshgrid(*([axis] * n), indexing="ij")
        self.coords = np.stack(coords)
        self.radius = np.sqrt(np.sum(self.coords ** 2, axis=0))
        self.interior = self.radius <= r_max * (1 + 1e-12)
        near = np.zeros_like(self.interior)
        for ax in range(n):
            near |= (np.roll(self.interior, 1, axis=ax)
                     | np.roll(self.interior, -1, axis=ax))
        self.boundary = near & ~self.interior

    @property
    def cell(self):
        return self.h ** self.n


def read_field(path: str) -> Field:
    """Header then node-major, component-minor little-endian float64."""
    with open(path, "rb") as f:
        blob = f.read()
    hsize = struct.calcsize(_HEADER)
    magic, version, n, m, size, h, r_max = struct.unpack(_HEADER, blob[:hsize])
    if magic != _MAGIC or version != 1:
        raise ValueError(f"{path}: not a version-1 field file")
    payload = blob[hsize:]
    if len(payload) != 8 * m * size ** n:
        raise ValueError(f"{path}: payload holds {len(payload)} bytes, "
                         f"expected {8 * m * size ** n}")
    flat = np.frombuffer(payload, dtype="<f8").reshape((size,) * n + (m,))
    return Field(n, h, r_max, np.moveaxis(flat, -1, 0).copy(), payload)


def check_field_sha256(fld: Field, path: str) -> list:
    """The sidecar's payload digest matches the payload."""
    with open(path + ".json") as f:
        want = json.load(f)["payload_sha256"]
    got = hashlib.sha256(fld.payload).hexdigest()
    return [] if got == want else [
        f"field_sha256: payload sha256 {got[:12]} != sidecar {want[:12]}"]


# ---------------------------------------------------------------------------
# stencil, energy and boundary data


def laplacian_7pt(fld: Field) -> np.ndarray:
    """(2n+1)-point Laplacian on every node not on the cube face."""
    u = fld.values
    out = np.zeros_like(u)
    core = (slice(None),) + (slice(1, -1),) * fld.n
    acc = -2.0 * fld.n * u[core]
    for ax in range(fld.n):
        for step in (-1, 1):
            idx = [slice(1, -1)] * fld.n
            idx[ax] = slice(1 + step, u.shape[ax + 1] - 1 + step)
            acc = acc + u[(slice(None),) + tuple(idx)]
    out[core] = acc / (fld.h * fld.h)
    return out


def power_w(u: np.ndarray, q: float) -> np.ndarray:
    """W = |u|^q, the power potential with its zero at the origin."""
    return np.sum(u * u, axis=0) ** (q / 2.0)


def grad_power(u: np.ndarray, q: float) -> np.ndarray:
    """grad |u|^q = q |u|^(q-2) u for the power potential with zero at 0."""
    rho2 = np.sum(u * u, axis=0)
    return q * rho2 ** (q / 2.0 - 1.0) * u


def check_el_residual(fld: Field, grad_w, tol: float) -> list:
    """sup over interior nodes of |lap_h u - grad W(u)| is at most tol, up
    to roundoff in the stencil sum."""
    res = laplacian_7pt(fld) - grad_w(fld.values)
    sup = float(np.sqrt(np.sum(res * res, axis=0))[fld.interior].max())
    slack = 1e-9 * max(1.0, tol)
    return [] if sup <= tol + slack else [
        f"el_residual: EL residual {sup:.3e} > tol {tol:.3e}"]


def angular_data(fld: Field, magnitude: float) -> np.ndarray:
    """magnitude * (cos phi, sin phi) with phi the azimuth of each node."""
    phi = np.arctan2(fld.coords[1], fld.coords[0])
    return magnitude * np.stack([np.cos(phi), np.sin(phi)])


def check_boundary_data(fld: Field, magnitude: float) -> list:
    g = angular_data(fld, magnitude)
    dev = float(np.abs(fld.values - g)[:, fld.boundary].max())
    return [] if dev <= 1e-12 else [
        f"boundary_data: boundary values off by {dev:.3e}"]


def edge_energy(fld: Field, values: np.ndarray, w) -> float:
    """h^n [ sum over edges with an interior end of |du|^2 / (2 h^2)
    + sum over interior nodes of W(u) ]."""
    e = 0.0
    for ax in range(fld.n):
        lo = [slice(None)] * fld.n
        hi = [slice(None)] * fld.n
        lo[ax], hi[ax] = slice(None, -1), slice(1, None)
        lo, hi = tuple(lo), tuple(hi)
        d = values[(slice(None),) + hi] - values[(slice(None),) + lo]
        inc = fld.interior[lo] | fld.interior[hi]
        e += 0.5 * float(np.sum(np.sum(d * d, axis=0)[inc])) / fld.h ** 2
    e += float(np.sum(w(values)[fld.interior]))
    return e * fld.cell


def ramp_field(fld: Field, magnitude: float) -> np.ndarray:
    """The documented initial iterate: the data ramped linearly to the zero
    over the unit shell inside the sphere."""
    lam = np.clip(fld.radius - (fld.r_max - 1.0), 0.0, 1.0)
    return lam * angular_data(fld, magnitude)


def check_energy_matches_report(energy: float, reported: float) -> list:
    rel = abs(energy - reported) / max(1.0, abs(reported))
    return [] if rel <= 1e-9 else [
        f"energy_matches_report: edge-sum energy {energy:.15g} != "
        f"reported {reported:.15g}"]


def check_energy_below_ramp(energy: float, ramp_energy: float) -> list:
    return [] if energy < ramp_energy else [
        f"energy_below_ramp: energy {energy:.6g} not below the ramp "
        f"field's {ramp_energy:.6g}"]


def check_minimize_output(out: str, q: float, magnitude: float,
                          tol: float) -> list:
    """All checks of one ``vacmin minimize`` output directory (power
    potential |u|^q with zero at the origin, angular data)."""
    path = os.path.join(out, "field.bin")
    fld = read_field(path)
    with open(os.path.join(out, "solve.json")) as f:
        solve = json.load(f)["solve"]

    def w(v):
        return power_w(v, q)

    energy = edge_energy(fld, fld.values, w)
    fails = check_field_sha256(fld, path)
    fails += check_el_residual(fld, lambda v: grad_power(v, q), tol)
    fails += check_boundary_data(fld, magnitude)
    fails += check_energy_matches_report(energy, solve["energy"])
    fails += check_energy_below_ramp(
        energy, edge_energy(fld, ramp_field(fld, magnitude), w))
    return fails


# ---------------------------------------------------------------------------
# 2D experiment


def bessel_field(fld: Field, magnitude: float) -> np.ndarray:
    """Exact solution of lap u = u on B_R with data magnitude*(cos, sin):
    magnitude * I_1(r) / I_1(R) * (cos theta, sin theta)."""
    from scipy.special import iv
    amp = magnitude * iv(1, fld.radius) / iv(1, fld.r_max)
    theta = np.arctan2(fld.coords[1], fld.coords[0])
    return amp * np.stack([np.cos(theta), np.sin(theta)])


# sup error of the first-order staircase boundary, measured 0.0315 at h=0.1
# on B_6 (and 0.031 on B_4); a second-order discretization also passes.
BESSEL_ERROR_PER_H = 0.4


def check_bessel(fld: Field, magnitude: float) -> list:
    err = fld.values - bessel_field(fld, magnitude)
    sup = float(np.sqrt(np.sum(err * err, axis=0))[fld.interior].max())
    bound = BESSEL_ERROR_PER_H * fld.h
    return [] if sup <= bound else [
        f"bessel_closed_form: sup |u - Bessel| = {sup:.4g} > {bound:.4g}"]


def check_bootstrap(report: dict, n: int, q: float) -> list:
    want = n - 1 - 2.0 / (q * n)
    got = report["fixed_point"]
    return [] if abs(got - want) <= 1e-12 else [
        f"bootstrap_fixed_point: {got!r} != {want!r}"]


def quadrature_slack(h: float, volume: float) -> float:
    """delta_q = 1e-8 + 1e-3 h^2 |B|, the slack the comparisons allow."""
    return 1e-8 + 1e-3 * h * h * volume


def check_competitors(reports, energy_u: float, delta_q: float) -> list:
    """Every admissible competitor has energy >= E(u) - delta_q."""
    fails = []
    for r in reports:
        if r["admissible"] and r["energy_competitor"] < energy_u - delta_q:
            fails.append(f"competitors_not_below: {r['tag']} energy "
                         f"{r['energy_competitor']:.12g} < E(u) - delta_q = "
                         f"{energy_u - delta_q:.12g}")
    return fails


def geodesic(points: np.ndarray, center: np.ndarray, radius: float):
    """Great-circle distances from center to each point on |x| = radius."""
    cos = points @ center / (radius * radius)
    return radius * np.arccos(np.clip(cos, -1.0, 1.0))


def check_uncovered(values: np.ndarray, covered: np.ndarray, eps: float):
    off = values[~covered]
    sup = float(off.max()) if off.size else 0.0
    return [] if sup <= eps else [
        f"uncovered_below_eps: uncovered sample {sup:.4g} > eps {eps:.4g}"]


def check_disc_union(points: np.ndarray, covered: np.ndarray, centers,
                     radius: float) -> list:
    """covered is exactly the union of the geodesic unit discs around the
    centers; samples within 1e-9 of a disc edge are not judged."""
    near = np.full(len(points), np.inf)
    for c in np.asarray(centers, dtype=float).reshape(-1, points.shape[1]):
        near = np.minimum(near, geodesic(points, c, radius))
    clear = np.abs(near - 1.0) > 1e-9
    bad = np.flatnonzero(clear & (covered != (near <= 1.0)))
    return [] if bad.size == 0 else [
        f"covered_is_disc_union: {bad.size} covered flags disagree with "
        f"the disc union (first index {bad[0]})"]


def check_center_energy(points: np.ndarray, values: np.ndarray, centers,
                        radius: float, mu: float) -> list:
    """Each center's geodesic 2-ball carries slice energy >= mu."""
    w = (2.0 * math.pi * radius if points.shape[1] == 2
         else 4.0 * math.pi * radius * radius) / len(values)
    fails = []
    for c in np.asarray(centers, dtype=float).reshape(-1, points.shape[1]):
        ball = float(np.sum(values[geodesic(points, c, radius) <= 2.0]) * w)
        if ball < mu:
            fails.append(f"center_ball_energy: center {c.tolist()} has "
                         f"2-ball energy {ball:.4g} < mu {mu:.4g}")
    return fails


def read_sphere_csv(path: str, radius: float):
    """(points, values, covered) from a 2D sphere-sample CSV."""
    with open(path) as f:
        rows = list(csv.DictReader(f))
    theta = np.array([float(r["theta"]) for r in rows])
    values = np.array([float(r["e"]) for r in rows])
    covered = np.array([r["covered"] == "1" for r in rows])
    points = radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    return points, values, covered


def check_weak_nondecreasing(weak) -> list:
    """R^{2-n} f(R) never drops (beyond summation roundoff)."""
    fails = []
    for i in range(len(weak) - 1):
        if weak[i + 1] < weak[i] - 1e-12 * max(1.0, abs(weak[i])):
            fails.append(f"weak_nondecreasing: drop at index {i}: "
                         f"{weak[i]:.12g} -> {weak[i + 1]:.12g}")
    return fails


def file_digests(out: str) -> dict:
    """sha256 of every artifact, skipping JSON records marked volatile."""
    digests = {}
    for name in sorted(os.listdir(out)):
        path = os.path.join(out, name)
        with open(path, "rb") as f:
            blob = f.read()
        if name.endswith(".json"):
            rec = json.loads(blob)
            if isinstance(rec, dict) and rec.get("volatile"):
                continue
        digests[name] = hashlib.sha256(blob).hexdigest()
    return digests


def check_identical(digests: dict, reference: dict) -> list:
    if digests == reference:
        return []
    names = sorted(set(digests) ^ set(reference)) + sorted(
        k for k in set(digests) & set(reference) if digests[k] != reference[k])
    return [f"artifacts_identical: differ from the first job's: {names}"]


def check_experiment_output(out: str, eps: float, magnitude: float) -> list:
    """All checks of one 2D experiment directory (quadratic potential)."""
    path = os.path.join(out, "field.bin")
    fld = read_field(path)
    fails = check_field_sha256(fld, path)
    fails += check_bessel(fld, magnitude)

    def load(name):
        with open(os.path.join(out, name)) as f:
            return json.load(f)

    fails += check_bootstrap(load("bootstrap.json"), fld.n, 2.0)
    energy = edge_energy(fld, fld.values, lambda v: 0.5 * power_w(v, 2))
    volume = math.pi * fld.r_max ** 2
    comp = load("competitors.json")["reports"]
    fails += check_energy_matches_report(energy, comp[0]["energy_u"])
    fails += check_competitors(comp, energy, quadrature_slack(fld.h, volume))
    for i, rep in enumerate(load("bad_discs.json")["reports"]):
        pts, vals, cov = read_sphere_csv(
            os.path.join(out, f"sphere_samples_{i}.csv"), rep["good_radius"])
        fails += check_uncovered(vals, cov, eps)
        fails += check_disc_union(pts, cov, rep["centers"], rep["good_radius"])
        fails += check_center_energy(pts, vals, rep["centers"],
                                     rep["good_radius"], rep["mu"])
    with open(os.path.join(out, "monotonicity.csv")) as f:
        weak = [float(r["f_weak_norm"]) for r in csv.DictReader(f)]
    fails += check_weak_nondecreasing(weak)
    return fails


# ---------------------------------------------------------------------------
# 3D analysis


def check_monotone(seq, tol: float, name: str) -> list:
    """seq is nondecreasing up to tol per step; failures carry ``name``."""
    return [f"{name}: drops by {seq[i] - seq[i + 1]:.4g} > {tol:.4g} at "
            f"index {i}" for i in range(len(seq) - 1)
            if seq[i + 1] < seq[i] - tol]


def gradient_sq(values: np.ndarray, h: float) -> np.ndarray:
    """|grad u|^2 by centered differences (one-sided at the cube faces)."""
    gsq = np.zeros(values.shape[1:])
    for c in range(values.shape[0]):
        for ax in range(values.ndim - 1):
            d = np.gradient(values[c], h, axis=ax)
            gsq += d * d
    return gsq


def check_trace_identity(tensor: np.ndarray, values: np.ndarray, h: float,
                         w: np.ndarray) -> list:
    """tr T = -((n-2)/2 |grad u|^2 + n W) pointwise, to roundoff."""
    n = tensor.shape[0]
    trace = np.einsum("ii...->...", tensor)
    want = -(0.5 * (n - 2) * gradient_sq(values, h) + n * w)
    dev = float(np.abs(trace - want).max())
    scale = max(1.0, float(np.abs(want).max()))
    return [] if dev <= 1e-12 * scale else [
        f"stress_trace_identity: off by {dev:.3e} (scale {scale:.3g})"]


def check_comparison(bound: float, energy: float, delta_q: float) -> list:
    """A minimizer's ball energy sits below the annulus comparison energy."""
    return [] if energy <= bound + delta_q else [
        f"comparison_above: E(u; B_R) = {energy:.12g} above the "
        f"comparison bound {bound:.12g}"]
