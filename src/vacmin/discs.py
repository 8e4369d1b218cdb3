"""Sphere-slice machinery: good radii, Holder constants, the clearing-out
threshold and the constructive good/bad disc covering.

The covering replaces an existence-style Vitali argument with a
deterministic greedy sweep over interpolated sphere samples: repeatedly
take the uncovered high-density sample whose geodesic 2-ball carries the
most slice energy, declare a bad disc there when that energy reaches the
clearing-out threshold, and cover its geodesic 1-ball. If a sample with
density above eps sits in a 2-ball with energy below the threshold, the
measured Holder constant was too small and the run fails loudly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .field import (InvariantViolation, ScalarField, sample_sphere,
                    sphere_area, sphere_means, sphere_points)


class ClearingOutViolated(InvariantViolation, RuntimeError):
    """A high-density sample sits in a low-energy 2-ball: the (C4, alpha)
    estimate fed to the threshold does not actually bound this field."""


def clearing_out_threshold(eps: float, c4: float, alpha: float, n: int) -> float:
    """Slice-energy level below which a geodesic 2-ball forces density <= eps
    on its concentric 1-ball:

        mu = eps / 2^n * |S^{n-1}| * min(1, (eps / (2 c4))**(1/alpha))**(n-1)
    """
    if eps <= 0 or c4 <= 0 or not 0 < alpha <= 1 or n < 2:
        raise ValueError("need eps, c4 > 0, alpha in (0, 1], n >= 2")
    d = min(1.0, (eps / (2.0 * c4)) ** (1.0 / alpha))
    return eps / 2.0 ** n * sphere_area(n, 1.0) * d ** (n - 1)


# ---------------------------------------------------------------------------
# matrix-free geodesic tests
#
# Every geodesic test on the sphere samples reads cosines
# cos[i, j] = unit_i . unit_j, never a K x K matrix of them, and makes no
# BLAS call. The 2-ball sweep, the covering and the violation scan form
# theirs in blocks of at most _SWEEP_ROWS * K by a numpy einsum (_cosines);
# the Holder search forms the explicit coordinate sum one offset at a time
# (_offset_cosines). Membership dist <= L, with
# dist = radius * arccos(cos), is decided by the threshold cos(L / radius);
# only cosines within _BAND of it go through arccos (clipped to [-1, 1]),
# where the exact test decides. Outside the band the angle differs from
# L / radius by more than 1e-9, far beyond rounding, so the masks equal
# those of the exact test.
#
# Each test forms exact cosines only where a cheap bound leaves it open.
# A few ulps of cosine rounding move an angle by at most about 3e-8 (near
# 0 and pi, where arccos is steepest), far below _MARGIN, so a bound
# widened by _MARGIN never settles a pair the exact test would decide the
# other way.
# - The 2-ball energies (_sweep) split the samples into groups, the boxes
#   of side _BOX of a fixed ambient grid cut by the sphere, and give each
#   group a centre c and an angular radius rho, the largest angle from c
#   to a member. By the triangle inequality a sample at angle psi from c
#   lies within angle theta = 2 / radius of every member when
#   psi <= theta - rho - _MARGIN, and farther than theta from every member
#   when psi >= theta + rho + _MARGIN; only the samples in between get
#   exact cosines.
# - The Holder search (sphere_holder_constant) needs only pairs within
#   angle theta = max_dist / radius, which a caller holding a lower bound
#   on C4 can shrink with _holder_cap. Such a pair has a chord of at most
#   theta, so its last coordinates differ by at most theta: sorted by that
#   coordinate, each sample's partners lie in a short window after it.
#
# _SWEEP_ROWS bounds a block to 0.5 MB at K = 4096; fewer rows saved
# memory but ran slower, more ran no faster. With _BOX = 0.4 the K = 4096
# lattice on S^2 falls into 115 groups of angular radius about 0.26, which
# forms a fifth fewer cosines than 0.5 in the same time; the saving grows
# as K^2, the cost per group as K. BENCH_20.json has the measurements.
_SWEEP_ROWS = 16
_BOX = 0.4
_BAND = 1e-9
_MARGIN = 1e-6


def _cosines(rows: np.ndarray, cols: np.ndarray, buf: np.ndarray):
    """cos[a, b] = rows[a] . cols[:, b] for r row vectors (r, n) and a
    column matrix (n, c), formed by one numpy einsum into the front of buf
    and returned as a C-contiguous (r, c) view of it (a copy when c = 1,
    see below). The cosines are not clipped: rounding can leave them a few
    ulps outside [-1, 1], so clip whatever goes to arccos.

    The einsum is not a BLAS matrix product, so the cosines do not depend
    on the BLAS build or its thread count. It sums the coordinate products
    in coordinate order, and since products commute, cos[i, j] and cos[j, i]
    agree bit for bit in every block either falls in. Where numpy's einsum
    loops round each multiply and each add on their own, as in the x86-64
    numpy 2.4.6 build it was measured on (SIMD baseline x86-64-v2, no FMA),
    every cosine has the bits of the explicit sum (a0*b0 + a1*b1) + a2*b2.
    Where they fuse multiply and add (numpy's SIMD loops can use FMA on
    aarch64, or on x86 built for it) the cosines may move by an ulp, and
    with them the sweep's, covering's and violation scan's arccos edge
    tests decided inside _BAND; test_cosine_blocks_sum_coordinates_in_order
    fails there. Pass cols C-ordered (gather columns with
    np.take(..., axis=1), not fancy indexing, which returns an F-ordered
    array that the einsum reads about 5x slower)."""
    one = cols.shape[1] == 1
    if one:
        # against one column numpy's einsum sums the products in another
        # order (seen in 3D); two copies of it keep the coordinate order
        cols = np.repeat(cols, 2, axis=1)
    cos = buf[:len(rows) * cols.shape[1]].reshape(len(rows), cols.shape[1])
    np.einsum("ik,kj->ij", rows, cols, out=cos)
    return cos[:, :1].copy() if one else cos


def _offset_cosines(cols: np.ndarray, k: int, buf: np.ndarray,
                    term: np.ndarray) -> np.ndarray:
    """cos[i] = cols[:, i] . cols[:, i + k] for the columns i < c - k of an
    (n, c) matrix, into the front of buf (term holds each product), summed
    as (a0*b0 + a1*b1) + a2*b2 by ufuncs that round each multiply and each
    add on their own, so the bits do not depend on the numpy build."""
    m = cols.shape[1] - k
    cos = np.multiply(cols[0, :m], cols[0, k:], out=buf[:m])
    for a in range(1, len(cols)):
        cos += np.multiply(cols[a, :m], cols[a, k:], out=term[:m])
    return cos


def _threshold(radius: float, dist: float) -> float:
    return math.cos(min(dist / radius, math.pi))


def _arc(cos: np.ndarray, idx: np.ndarray, radius: float) -> np.ndarray:
    """Geodesic distances radius * arccos(cos) at the flat indices idx."""
    return radius * np.arccos(np.clip(cos.ravel().take(idx), -1.0, 1.0))


def _within(cos: np.ndarray, radius: float, dist: float) -> np.ndarray:
    """Mask of radius * arccos(cos) <= dist."""
    t = _threshold(radius, dist)
    inside = cos >= t + _BAND
    edge = np.flatnonzero((cos > t - _BAND) ^ inside)
    if edge.size:
        inside.ravel()[edge] = _arc(cos, edge, radius) <= dist
    return inside


def _holder_cap(values: np.ndarray, alpha: float, max_dist: float,
                floor: float) -> float:
    """The max_dist to search for a caller that takes max(floor, c4): no
    pair farther apart can have a Holder ratio above floor > 0, since a
    ratio |v_i - v_j| / dist^alpha > floor needs dist^alpha < spread / floor
    with spread = max - min, which bounds every |v_i - v_j| after rounding
    too. The 1e-9 pad covers the rounding of the bound and of the ratios.
    The search may then return a lower c4, but max(floor, c4) keeps its
    bits."""
    if floor <= 0:
        return max_dist
    bound = float(values.max() - values.min()) / floor
    # no cap; this also keeps a huge bound ** (1 / alpha) from overflowing
    if bound >= max_dist ** alpha:
        return max_dist
    return min(max_dist, bound ** (1.0 / alpha) * (1.0 + 1e-9))


def _groups(unit: np.ndarray):
    """The samples grouped by the boxes of side _BOX they fall in. Returns
    (order, starts, centres, rho): order lists the sample indices box by
    box (ascending within a box), group g is order[starts[g]:starts[g + 1]],
    centres[g] is the unit mean of its members and rho[g] the largest angle
    from it to one of them."""
    cell = np.floor(unit / _BOX).astype(np.int64)
    cell -= cell.min(axis=0)
    key = np.ravel_multi_index(tuple(cell.T), tuple(cell.max(axis=0) + 1))
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    members = unit[order]
    # a box of side at most 1/2 holds unit vectors at most 0.87 apart, so
    # the mean of its members has norm above 0.6
    sums = np.add.reduceat(members, starts, axis=0)
    centres = sums / np.sqrt(np.einsum("ij,ij->i", sums, sums))[:, None]
    own = np.repeat(centres, np.diff(np.r_[starts, len(unit)]), axis=0)
    cos = np.clip(np.einsum("ij,ij->i", members, own), -1.0, 1.0)
    rho = np.maximum.reduceat(np.arccos(cos), starts)
    return order, starts, centres, rho


def _cos_at(angle: np.ndarray) -> np.ndarray:
    """Thresholds t with cos psi >= t for the angles psi <= angle: cos(angle),
    or +inf (no psi) for a negative angle and -inf (every psi) from pi on."""
    return np.where(angle < 0.0, np.inf, np.where(
        angle >= math.pi, -np.inf, np.cos(np.clip(angle, 0.0, math.pi))))


def _sweep(unit: np.ndarray, values: np.ndarray, radius: float) -> np.ndarray:
    """The geodesic 2-ball slice energy of every sample, a group of samples
    at a time (see the comment above _SWEEP_ROWS).

    For each group one einsum of its centre against every sample gives
    cos psi. The samples with psi <= 2 / radius - rho - _MARGIN are in the
    2-ball of every member, so their summed weight is added once; those
    with psi >= 2 / radius + rho + _MARGIN are in none; only the ones in
    between get exact cosines and _within."""
    K = len(values)
    order, starts, centres, rho = _groups(unit)
    bounds = np.r_[starts, K]
    cols = unit.T.copy()
    members = unit[order]
    weighted = values * (sphere_area(unit.shape[1], radius) / K)
    reach = rho + _MARGIN
    full_at = _cos_at(2.0 / radius - reach)[:, None]
    ring_at = _cos_at(2.0 / radius + reach)[:, None]
    sums = np.empty(K)
    buf = np.empty(min(_SWEEP_ROWS, K) * K)
    psi_buf = np.empty(min(_SWEEP_ROWS, len(starts)) * K)
    for g0 in range(0, len(starts), _SWEEP_ROWS):
        g1 = min(g0 + _SWEEP_ROWS, len(starts))
        cos_psi = _cosines(centres[g0:g1], cols, psi_buf)
        full = cos_psi >= full_at[g0:g1]
        ring = (cos_psi >= ring_at[g0:g1]) & ~full
        sums[bounds[g0]:bounds[g1]] = np.repeat(
            np.einsum("gj,j->g", full, weighted), np.diff(bounds[g0:g1 + 1]))
        for g in range(g0, g1):
            near = np.flatnonzero(ring[g - g0])
            for r0, cos in _gathered(members, cols, bounds[g], bounds[g + 1],
                                     near, buf):
                sums[r0:r0 + len(cos)] += np.einsum(
                    "ij,j->i", _within(cos, radius, 2.0), weighted[near])
    ball2 = np.empty(K)
    ball2[order] = sums
    return ball2


def _gathered(members, cols, a, b, near, buf):
    """Yield (r0, cos) for consecutive blocks of the members a..b-1, each as
    many as buf holds: cos[r, k] is the cosine between members[r0 + r] and
    the sample near[k]. Nothing when near is empty."""
    if not near.size:
        return
    near_cols = np.take(cols, near, axis=1)
    step = max(1, len(buf) // near.size)
    for r0 in range(a, b, step):
        yield r0, _cosines(members[r0:min(r0 + step, b)], near_cols, buf)


# ---------------------------------------------------------------------------
# Holder / Lipschitz constants


def holder_constant(e: ScalarField, alpha: float = 1.0) -> float:
    """max over sampled node pairs within distance 1 of
    |e(x) - e(y)| / |x - y|^alpha.

    Pairs are taken from a fixed offset stencil: all unit-cell neighbors
    plus axis and diagonal offsets at distances about 1/2 and 1.
    """
    if not 0 < alpha <= 1:
        raise ValueError("alpha must be in (0, 1]")
    g = e.grid
    h = g.h
    offsets = set()
    for far in (1, max(1, round(0.5 / h)), max(1, round(1.0 / h))):
        for ax in range(g.n):
            off = [0] * g.n
            off[ax] = far
            offsets.add(tuple(off))
        diag = max(1, round(far / math.sqrt(g.n)))
        offsets.add((diag,) * g.n)
        mixed = [diag] * g.n
        mixed[0] = -diag
        offsets.add(tuple(mixed))
    best = 0.0
    for off in offsets:
        dist = h * math.sqrt(sum(o * o for o in off))
        if dist > 1.0 + 1e-12:
            continue
        src = [slice(None)] * g.n
        dst = [slice(None)] * g.n
        for ax, o in enumerate(off):
            if o > 0:
                src[ax] = slice(o, None)
                dst[ax] = slice(None, -o)
            elif o < 0:
                src[ax] = slice(None, o)
                dst[ax] = slice(-o, None)
        diff = np.abs(e.values[tuple(src)] - e.values[tuple(dst)])
        best = max(best, float(diff.max()) / dist ** alpha)
    return best


def sphere_holder_constant(points: np.ndarray, values: np.ndarray,
                           radius: float, alpha: float = 1.0,
                           max_dist: float = 1.0) -> float:
    """Holder ratio over all sample pairs within geodesic distance max_dist.

    A pair within angle theta = max_dist / radius has last coordinates z at
    most theta apart (see the comment above _SWEEP_ROWS). So with the
    samples sorted by z, the partners of sample i lie in its window, the
    next width[i] samples, up to z + theta + _MARGIN. Offset k pairs each i
    with i + k and keeps the pairs with k <= width[i], so each unordered
    pair is formed at most once. Only cosines near or past the threshold of
    pairs that differ in value go to arccos (the others have ratio 0)."""
    unit = points / radius
    order = np.argsort(unit[:, -1], kind="stable")
    unit, values = unit[order], values[order]
    z = unit[:, -1]
    K = len(z)
    # the window of sample i is the samples i + 1 .. i + width[i]
    width = (np.searchsorted(z, z + (max_dist / radius + _MARGIN), "right")
             - np.arange(1, K + 1))
    widest = int(width.max(initial=0))
    if widest <= 0:
        return 0.0
    cols = unit.T.copy()
    buf, term = np.empty(K), np.empty(K)
    near = _threshold(radius, max_dist) - _BAND
    best = 0.0
    for k in range(1, widest + 1):
        cos = _offset_cosines(cols, k, buf, term)
        i = np.flatnonzero((width[:K - k] >= k) & (cos >= near))
        diff = np.abs(values[i] - values[i + k])
        moved = diff != 0.0
        dist = _arc(cos, i[moved], radius)
        sel = (dist > 1e-12) & (dist <= max_dist)
        if sel.any():
            best = max(best, float((diff[moved][sel] / dist[sel] ** alpha)
                                   .max()))
    return best


# ---------------------------------------------------------------------------
# good radius selection

# radii interpolated in one call: fewer calls, and the (radii * K, n)
# points of a batch stay small
_SCAN_RADII = 4


def select_good_radius(e: ScalarField, R: float, samples: int = 32,
                       K: int = 512):
    """Scan radii in (R, 2R) and return (S_R, slice energy) minimizing the
    sphere-slice integral of e. By the mean-value property the minimum is
    bounded by the shell average (1/R) * int_{B_2R - B_R} e."""
    g = e.grid
    if 2.0 * R + g.h > g.r_max:
        raise ValueError(f"R={R} out of range: need 2R + h <= r_max")
    radii = R + (np.arange(samples) + 0.5) / samples * R
    unit = sphere_points(g.n, 1.0, K)
    best_r, best_val = radii[0], math.inf
    for b in range(0, samples, _SCAN_RADII):
        batch = radii[b:b + _SCAN_RADII]
        for r, mean in zip(batch, sphere_means(g, e.values, batch, unit)):
            v = float(mean * sphere_area(g.n, float(r)))
            if v < best_val:
                best_r, best_val = float(r), v
    return best_r, best_val


# ---------------------------------------------------------------------------
# greedy covering


@dataclass
class BadDiscReport:
    R: float
    good_radius: float
    eps: float
    c4: float
    alpha: float
    mu: float
    centers: np.ndarray        # (N, n) points on the sphere
    count: int
    offdisc_sup: float
    slice_energy: float
    points: np.ndarray         # sphere samples kept for CSV export
    values: np.ndarray
    covered: np.ndarray

    def to_dict(self) -> dict:
        return {
            "R": self.R,
            "good_radius": self.good_radius,
            "eps": self.eps,
            "c4": self.c4,
            "alpha": self.alpha,
            "mu": self.mu,
            "count": self.count,
            "centers": [list(map(float, c)) for c in self.centers],
            "offdisc_sup": self.offdisc_sup,
            "slice_energy": self.slice_energy,
            "sample_count": int(len(self.values)),
            "units": {"R": "length", "good_radius": "length",
                      "eps": "energy density", "mu": "slice energy",
                      "slice_energy": "slice energy"},
        }


def greedy_bad_discs(points: np.ndarray, values: np.ndarray, radius: float,
                     eps: float, mu: float):
    """Run the greedy covering on explicit sphere samples.

    Returns (center indices, covered mask). Raises ClearingOutViolated when
    an uncovered sample with value > eps has 2-ball energy below mu. Values
    never change, so neither do the 2-ball energies: one sweep forms them
    all, and each pick then forms only its own unit-ball row.
    """
    unit = points / radius
    ball2 = _sweep(unit, values, radius)
    cols = unit.T.copy()
    buf = np.empty(len(values))
    covered = np.zeros(len(values), dtype=bool)
    hot = values > eps
    centers = []
    while True:
        open_idx = np.flatnonzero(hot & ~covered)
        if open_idx.size == 0:
            break
        energy = ball2[open_idx]
        bmax = float(energy.max())
        if bmax < mu:
            worst = open_idx[int(np.argmax(energy))]
            raise ClearingOutViolated(
                f"sample with density {values[worst]:.6g} > eps={eps:.6g} has "
                f"2-ball energy {bmax:.6g} < mu={mu:.6g}")
        # near-ties on the 2-ball energy (summation dust) resolve by sample
        # value, then by index, so plateau selections stay deterministic
        near = open_idx[energy >= bmax - 1e-12 * max(1.0, abs(bmax))]
        pick = int(near[np.lexsort((near, -values[near]))[0]])
        centers.append(pick)
        covered |= _within(_cosines(unit[pick:pick + 1], cols, buf),
                           radius, 1.0)[0]
    return np.array(centers, dtype=int), covered


def clearing_out_violations(points: np.ndarray, values: np.ndarray,
                            radius: float, eps: float, mu: float) -> list:
    """Exhaustive soundness check of the threshold on explicit samples:
    every geodesic 2-ball with slice energy < mu must have values <= eps
    throughout its concentric 1-ball. Returns the list of violations."""
    unit = points / radius
    ball2 = _sweep(unit, values, radius)
    low = np.flatnonzero(ball2 < mu)
    cols = unit.T.copy()
    buf = np.empty(min(_SWEEP_ROWS, len(low)) * len(values))
    out = []
    for start in range(0, len(low), _SWEEP_ROWS):
        rows = low[start:start + _SWEEP_ROWS]
        cos = _cosines(unit[rows], cols, buf)
        inner = np.where(_within(cos, radius, 1.0), values, -np.inf).max(axis=1)
        out += [(int(i), float(ball2[i]), float(v))
                for i, v in zip(rows, inner) if v > eps]
    return out


def bad_disc_pipeline(e: ScalarField, R: float, eps: float, alpha: float = 1.0,
                      samples: int = 32, K: int = 1024) -> BadDiscReport:
    """Full slice analysis at base radius R: pick the good radius in (R, 2R),
    measure the Lipschitz/Holder constant, form the clearing-out threshold
    and run the covering. C4 is at least the grid constant, so the sphere
    search looks only for pairs whose ratio could exceed it."""
    n = e.grid.n
    s_r, _ = select_good_radius(e, R, samples=samples, K=K)
    c4_grid = holder_constant(e, alpha)
    pts, vals = sample_sphere(e, s_r, K)
    c4_sphere = sphere_holder_constant(
        pts, vals, s_r, alpha, _holder_cap(vals, alpha, 1.0, c4_grid))
    c4 = max(c4_grid, c4_sphere, 1e-12)
    mu = clearing_out_threshold(eps, c4, alpha, n)
    centers_idx, covered = greedy_bad_discs(pts, vals, s_r, eps, mu)
    off = vals[~covered]
    offdisc_sup = float(off.max()) if off.size else 0.0
    if offdisc_sup > eps:
        raise ClearingOutViolated("uncovered sample above eps after covering")
    return BadDiscReport(
        R=R, good_radius=s_r, eps=eps, c4=c4, alpha=alpha, mu=mu,
        centers=pts[centers_idx], count=int(centers_idx.size),
        offdisc_sup=offdisc_sup,
        slice_energy=float(vals.mean() * sphere_area(n, s_r)),
        points=pts, values=vals, covered=covered)
