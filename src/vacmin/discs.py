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

from . import _kernels
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
# cos[i, j] = unit_i . unit_j, never a K x K matrix of them. Membership
# dist <= L, with dist = radius * arccos(cos), is the exact test (_arc, with
# cos clipped to [-1, 1]); a cheap test on cos against the threshold
# cos(L / radius) only settles the pairs far from it.
#
# The 2-ball sweep, the covering and the violation scan decide their pairs
# in _members. A float32 BLAS product of the unit vectors only filters: it
# settles every pair whose float32 cosine lies more than _F32 from the
# threshold. For unit vectors the float32 cosine is within about 3e-7 of
# the exact one (each coordinate rounds by 2^-24 relative, then three
# products and two sums round again, in any order and with or without
# FMA), and rounding the threshold to float32 adds at most 6e-8, so _F32
# is over 20 times the error and the filter never settles a pair the exact
# test would decide the other way. Only the pairs it leaves open get
# float64 cosines, the explicit sum (a0*b0 + a1*b1) + a2*b2 with one numpy
# multiply and one add per coordinate (_dots), and the exact test. So the
# masks do not depend on the BLAS build or its thread count, nor on
# whether numpy's einsum fuses multiply and add. The Holder search forms
# the same explicit sum one offset at a time, with no float32 filter, and
# sends only cosines within _BAND of its threshold or past it to arccos.
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
#   when psi >= theta + rho + _MARGIN; only the samples in between are
#   tested against each member.
# - The Holder search (sphere_holder_constant) needs only pairs within
#   angle theta = max_dist / radius, which a caller holding a lower bound
#   on C4 can shrink with _holder_cap. Such a pair has a chord of at most
#   theta, so its last coordinates differ by at most theta: sorted by that
#   coordinate, each sample's partners lie in a short window after it.
#
# _SWEEP_ROWS group centres (or violation-scan rows) are tested against
# the K samples at a time: at K = 4096 that is one float32 product of
# 16 * 4096 * 3 multiply-adds, within _kernels._GEMM_MACS. _members splits
# larger products by rows into tiles of at most that many multiply-adds,
# the size up to which OpenBLAS's gemm runs on one thread (4 * 65536);
# waking its threads costs more than a product this small. With
# _BOX = 0.4 the K = 4096 lattice on S^2 falls into 115 groups of angular
# radius about 0.26, which forms a fifth fewer cosines than 0.5 in the
# same time; the saving grows as K^2, the cost per group as K.
# BENCH_20.json and BENCH_28.json have the measurements.
_SWEEP_ROWS = 16
_BOX = 0.4
_BAND = 1e-9
_MARGIN = 1e-6
_F32 = 1e-5


def _members(rows: np.ndarray, cols: np.ndarray, cols32: np.ndarray,
             t=None, arc=None, near=None) -> np.ndarray:
    """Mask (r, c) of the pairs of r unit row vectors (r, n) and c unit
    columns of cols (n, K), the columns near (all K when None), whose cosine
    passes a test: with arc = (radius, dist), radius * arccos(cos) <= dist,
    whose threshold is t = _threshold(radius, dist); without, cos >= t for
    a float t or an (r, 1) column of one threshold per row. cols32 is cols
    in float32.

    The float32 product of the rows and the columns settles each pair whose
    cosine lies more than _F32 from t (see the comment above _SWEEP_ROWS),
    in tiles of at most _kernels._GEMM_MACS multiply-adds (or one row). The
    comparisons stay in float32: a Python float t is rounded to float32
    (NEP 50), a column is cast. The open pairs get the explicit float64 sum
    and the exact test, so the mask equals that test on float64 cosines bit
    for bit."""
    if arc:
        t = _threshold(*arc)
    if near is not None:
        cols32 = np.take(cols32, near, axis=1)
    n, c = cols32.shape
    out = np.empty((len(rows), c), dtype=bool)
    rows32 = rows.astype(np.float32)
    per_row = np.ndim(t) > 0
    if per_row:
        hi, lo = (t + _F32).astype(np.float32), (t - _F32).astype(np.float32)
    else:
        hi, lo = float(t) + _F32, float(t) - _F32
    step = max(1, _kernels._GEMM_MACS // (n * c))
    for r0 in range(0, len(rows), step):
        r1 = min(r0 + step, len(rows))
        cos32 = np.matmul(rows32[r0:r1], cols32)
        inside = out[r0:r1]
        np.greater_equal(cos32, hi[r0:r1] if per_row else hi, out=inside)
        open_ = np.flatnonzero((cos32 > (lo[r0:r1] if per_row else lo))
                               ^ inside)
        if open_.size:
            i, j = np.divmod(open_, c)
            i += r0
            cos = _dots(rows[i].T, cols[:, j if near is None else near[j]])
            inside.ravel()[open_] = (_arc(cos, arc[0]) <= arc[1] if arc else
                                     cos >= (t[i, 0] if per_row else t))
    return out


def _dots(a: np.ndarray, b: np.ndarray, out=None, term=None) -> np.ndarray:
    """a[:, m] . b[:, m] for each column m of two (n, M) matrices, summed
    as (a0*b0 + a1*b1) + a2*b2 by ufuncs that round each multiply and each
    add on their own, so the bits do not depend on the numpy build. out
    and term, when given, hold the sums and each product."""
    cos = np.multiply(a[0], b[0], out=out)
    for k in range(1, len(a)):
        cos += np.multiply(a[k], b[k], out=term)
    return cos


def _threshold(radius: float, dist: float) -> float:
    return math.cos(min(dist / radius, math.pi))


def _arc(cos: np.ndarray, radius: float) -> np.ndarray:
    """Geodesic distances radius * arccos(cos)."""
    return radius * np.arccos(np.clip(cos, -1.0, 1.0))


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

    _members tests each group's centre against every sample for its angle
    psi. The samples with psi <= 2 / radius - rho - _MARGIN are in the
    2-ball of every member, so their summed weight is added once; those
    with psi >= 2 / radius + rho + _MARGIN are in none; only the ones in
    between are tested against each member."""
    K = len(values)
    order, starts, centres, rho = _groups(unit)
    bounds = np.r_[starts, K]
    cols = unit.T.copy()
    cols32 = cols.astype(np.float32)
    members = unit[order]
    weighted = values * (sphere_area(unit.shape[1], radius) / K)
    reach = rho + _MARGIN
    full_at = _cos_at(2.0 / radius - reach)[:, None]
    ring_at = _cos_at(2.0 / radius + reach)[:, None]
    sums = np.empty(K)
    for g0 in range(0, len(starts), _SWEEP_ROWS):
        g1 = min(g0 + _SWEEP_ROWS, len(starts))
        full = _members(centres[g0:g1], cols, cols32, full_at[g0:g1])
        ring = _members(centres[g0:g1], cols, cols32, ring_at[g0:g1]) & ~full
        sums[bounds[g0]:bounds[g1]] = np.repeat(
            np.einsum("gj,j->g", full, weighted), np.diff(bounds[g0:g1 + 1]))
        for g in range(g0, g1):
            near = np.flatnonzero(ring[g - g0])
            if near.size:
                a, b = bounds[g], bounds[g + 1]
                inside = _members(members[a:b], cols, cols32,
                                  arc=(radius, 2.0), near=near)
                sums[a:b] += np.einsum("ij,j->i", inside, weighted[near])
    ball2 = np.empty(K)
    ball2[order] = sums
    return ball2


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
        src = tuple(slice(max(o, 0), min(o, 0) or None) for o in off)
        dst = tuple(slice(max(-o, 0), min(-o, 0) or None) for o in off)
        diff = np.abs(e.values[src] - e.values[dst])
        best = max(best, float(diff.max()) / dist ** alpha)
    return best


def _positive_radius(radius: float) -> None:
    """Refuse a sphere radius that is not positive, NaN included."""
    if not radius > 0:
        raise ValueError(f"radius={radius} must be positive")


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
    _positive_radius(radius)
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
        m = K - k
        cos = _dots(cols[:, :m], cols[:, k:], buf[:m], term[:m])
        i = np.flatnonzero((width[:m] >= k) & (cos >= near))
        diff = np.abs(values[i] - values[i + k])
        moved = diff != 0.0
        dist = _arc(cos[i[moved]], radius)
        sel = (dist > 1e-12) & (dist <= max_dist)
        if sel.any():
            best = max(best, float((diff[moved][sel] / dist[sel] ** alpha)
                                   .max()))
    return best


# ---------------------------------------------------------------------------
# good radius selection

def select_good_radius(e: ScalarField, R: float, samples: int = 32,
                       K: int = 512):
    """Scan radii in (R, 2R) and return (S_R, slice energy) minimizing the
    sphere-slice integral of e. By the mean-value property the minimum is
    bounded by the shell average (1/R) * int_{B_2R - B_R} e."""
    g = e.grid
    if not R > 0 or 2.0 * R + g.h > g.r_max:
        raise ValueError(f"R={R} out of range: need 0 < R, 2R + h <= r_max")
    radii = R + (np.arange(samples) + 0.5) / samples * R
    means = sphere_means(g, e.values, radii, sphere_points(g.n, 1.0, K))
    best_r, best_val = radii[0], math.inf
    for r, mean in zip(radii, means):
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
    _positive_radius(radius)
    unit = points / radius
    ball2 = _sweep(unit, values, radius)
    cols = unit.T.copy()
    cols32 = cols.astype(np.float32)
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
        covered |= _members(unit[pick:pick + 1], cols, cols32,
                            arc=(radius, 1.0))[0]
    return np.array(centers, dtype=int), covered


def clearing_out_violations(points: np.ndarray, values: np.ndarray,
                            radius: float, eps: float, mu: float) -> list:
    """Exhaustive soundness check of the threshold on explicit samples:
    every geodesic 2-ball with slice energy < mu must have values <= eps
    throughout its concentric 1-ball. Returns the list of violations."""
    _positive_radius(radius)
    unit = points / radius
    ball2 = _sweep(unit, values, radius)
    low = np.flatnonzero(ball2 < mu)
    cols = unit.T.copy()
    cols32 = cols.astype(np.float32)
    out = []
    for start in range(0, len(low), _SWEEP_ROWS):
        rows = low[start:start + _SWEEP_ROWS]
        inside = _members(unit[rows], cols, cols32, arc=(radius, 1.0))
        inner = np.where(inside, values, -np.inf).max(axis=1)
        out += [(int(i), float(ball2[i]), float(v))
                for i, v in zip(rows, inner) if v > eps]
    return out


def bad_disc_pipeline(e: ScalarField, R: float, eps: float, alpha: float = 1.0,
                      samples: int = 32, K: int = 1024) -> BadDiscReport:
    """Full slice analysis at base radius R: pick the good radius in (R, 2R),
    measure the Lipschitz/Holder constant, form the clearing-out threshold
    and run the covering. C4 is at least the grid constant, so the sphere
    search looks only for pairs whose ratio could exceed it.

    The grid constant is kept on e, one per alpha, so further pipelines on
    the same field (one per radius in bad-discs) do not form it again. It
    reads e.values as they were at the first call: a field whose values
    change needs a new ScalarField."""
    n = e.grid.n
    s_r, _ = select_good_radius(e, R, samples=samples, K=K)
    memo = e.__dict__.setdefault("_holder_constants", {})
    if alpha not in memo:
        memo[alpha] = holder_constant(e, alpha)
    c4_grid = memo[alpha]
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
