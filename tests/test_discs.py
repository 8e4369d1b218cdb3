"""Good radii, Holder constants, clearing-out threshold and the covering."""

import math
import tracemalloc

import numpy as np
import pytest

from conftest import sphere_integral
from vacmin import _kernels, discs
from vacmin.discs import (ClearingOutViolated, bad_disc_pipeline,
                          clearing_out_threshold, clearing_out_violations,
                          greedy_bad_discs, holder_constant,
                          select_good_radius, sphere_holder_constant)
from vacmin.field import (Grid, ScalarField, sample_sphere, sphere_area,
                          sphere_points)


def geodesic_distances(points: np.ndarray, radius: float) -> np.ndarray:
    """Dense K x K great-circle distances of points on |x| = radius: the
    reference the blocked covering is checked against. The cosines are
    summed coordinate by coordinate like the covering's, so that equality
    can be exact; a BLAS product rounds some of them differently in the
    last bit."""
    unit = points / radius
    dots = unit[:, None, 0] * unit[None, :, 0]
    for k in range(1, unit.shape[1]):
        dots = dots + unit[:, None, k] * unit[None, :, k]
    return radius * np.arccos(np.clip(dots, -1.0, 1.0))


# ---------------------------------------------------------------------------
# threshold formula


def test_threshold_formula_value():
    # n=2, eps=0.5, C4=1, alpha=1: (0.5/4) * 2pi * 0.25 = 0.0625 pi
    mu = clearing_out_threshold(0.5, 1.0, 1.0, 2)
    assert mu == pytest.approx(0.0625 * math.pi)
    assert mu == pytest.approx(0.19635, abs=1e-5)


def test_threshold_monotone_in_eps():
    mus = [clearing_out_threshold(e, 1.0, 1.0, 2)
           for e in np.linspace(0.05, 3.0, 40)]
    assert all(b > a for a, b in zip(mus, mus[1:]))


def test_threshold_saturation():
    # eps >= 2 C4 saturates the min at 1
    c4, n = 0.3, 3
    eps = 0.7
    assert eps >= 2 * c4
    mu = clearing_out_threshold(eps, c4, 1.0, n)
    assert mu == pytest.approx(eps / 2 ** n * sphere_area(n, 1.0))


def test_threshold_validation():
    with pytest.raises(ValueError):
        clearing_out_threshold(-1.0, 1.0, 1.0, 2)
    with pytest.raises(ValueError):
        clearing_out_threshold(0.5, 1.0, 1.5, 2)


# ---------------------------------------------------------------------------
# Holder constants


def test_holder_constant_examples(small_grid):
    assert holder_constant(ScalarField.constant(small_grid, 3.0)) == 0.0
    lin = ScalarField.from_function(small_grid, lambda x: x[0])
    c = holder_constant(lin, 1.0)
    assert c == pytest.approx(1.0, abs=1e-8)
    doubled = ScalarField(small_grid, 2.0 * lin.values)
    assert holder_constant(doubled, 1.0) == pytest.approx(2 * c)


def test_sphere_holder_constant_linear_profile():
    K = 512
    R = 3.0
    pts = sphere_points(2, R, K)
    theta = np.arctan2(pts[:, 1], pts[:, 0])
    vals = np.cos(theta)
    c = sphere_holder_constant(pts, vals, R, 1.0)
    # d cos(theta) / d(arc) = sin(theta)/R, sup 1/R
    assert c == pytest.approx(1.0 / R, rel=5e-2)


# ---------------------------------------------------------------------------
# good radius selection


def _field_from_radial(grid, fn):
    return ScalarField(grid, fn(grid.radius))


def test_good_radius_constant_density():
    g = Grid(2, 0.1, 5.0)
    e = ScalarField.constant(g, 1.0)
    s_r, val = select_good_radius(e, 2.0, samples=16)
    radii = 2.0 + (np.arange(16) + 0.5) / 16 * 2.0
    # slice energy 2 pi S grows with S: the smallest sampled radius wins
    assert s_r == pytest.approx(radii[0])
    assert val == pytest.approx(2 * math.pi * s_r, rel=1e-6)


def test_good_radius_zero_field():
    g = Grid(2, 0.1, 5.0)
    e = ScalarField.constant(g, 0.0)
    s_r, val = select_good_radius(e, 2.0, samples=8)
    assert val == 0.0
    assert 2.0 < s_r < 4.0


def test_good_radius_avoids_hot_shell():
    # density concentrated in a thin shell at 1.5 R: the argmin stays away;
    # oracle = brute-force evaluation of every sampled radius
    g = Grid(2, 0.05, 5.0)
    R = 2.0
    e = _field_from_radial(g, lambda r: np.exp(-((r - 3.0) / 0.2) ** 2))
    samples = 32
    s_r, val = select_good_radius(e, R, samples=samples)
    radii = R + (np.arange(samples) + 0.5) / samples * R
    brute = [sphere_integral(e, float(r), 512) for r in radii]
    assert s_r == pytest.approx(radii[int(np.argmin(brute))])
    assert abs(s_r - 3.0) > 0.5


def test_good_radius_mean_value_bound():
    # min over sampled slices <= shell average (1/R) int_{B_2R - B_R} e
    g = Grid(2, 0.05, 5.0)
    R = 2.0
    e = _field_from_radial(g, lambda r: 1.0 + 0.5 * np.sin(3 * r))
    from vacmin.field import integrate_ball
    s_r, val = select_good_radius(e, R, samples=32)
    shell = integrate_ball(e, 2 * R) - integrate_ball(e, R)
    assert val <= shell / R + 0.05 * shell / R


@pytest.mark.parametrize("n", [2, 3])
def test_good_radius_scan_scales_one_lattice(n):
    # the scan interpolates at r * (unit lattice): that is the radius-r
    # lattice bit for bit, so the scan agrees exactly with sampling each
    # sphere afresh
    for K in (8, 512, 4096):
        unit = sphere_points(n, 1.0, K)
        for r in (0.3, 1.0, 1.2345678901234567, 2.0 + 1 / 3, 7.5):
            assert (r * unit).tobytes() == sphere_points(n, r, K).tobytes()
    g = Grid(n, 0.2, 4.0)
    rng = np.random.default_rng(n)
    e = ScalarField(g, rng.random(g.shape))
    R, K = 1.2, 1024
    # the scan interpolates 16 radii per call at K = 1024; 17 leaves a
    # short batch
    for samples in (32, 17, 7):
        radii = R + (np.arange(samples) + 0.5) / samples * R
        slices = [float(sample_sphere(e, float(r), K)[1].mean()
                        * sphere_area(n, float(r))) for r in radii]
        k = int(np.argmin(slices))
        assert select_good_radius(e, R, samples=samples, K=K) == (
            float(radii[k]), slices[k])


def test_good_radius_range_check():
    g = Grid(2, 0.1, 2.0)
    with pytest.raises(ValueError):
        select_good_radius(ScalarField.constant(g, 1.0), 1.5)


def _bump_field():
    g = Grid(3, 0.2, 4.0)
    return ScalarField.from_function(
        g, lambda x: np.exp(-((x[0] - 1.5) ** 2 + x[1] ** 2 + x[2] ** 2)))


@pytest.mark.parametrize("R", [-1.0, 0.0, -0.0, math.nan])
def test_good_radius_refuses_a_radius_that_is_not_positive(R):
    # a negative R would scan (2R, R) and return a negative good radius
    with pytest.raises(ValueError, match="0 < R"):
        select_good_radius(_bump_field(), R, K=64)


@pytest.mark.parametrize("R", [-1.0, 0.0, math.nan])
def test_pipeline_refuses_a_radius_that_is_not_positive(R):
    # refused as bad input, not as a clearing-out violation (the CLI's
    # exit 4) or a division by zero
    with pytest.raises(ValueError, match="0 < R"):
        bad_disc_pipeline(_bump_field(), R, 0.05, K=64)


# ---------------------------------------------------------------------------
# greedy covering


def _circle_samples(K, R):
    pts = sphere_points(2, R, K)
    theta = np.arctan2(pts[:, 1], pts[:, 0])
    return pts, theta


def _bump(theta, center, width, height):
    # compactly supported smooth bump of given angular half-width
    d = np.angle(np.exp(1j * (theta - center)))
    t = d / width
    out = np.zeros_like(theta)
    sel = np.abs(t) < 1.0
    out[sel] = height * np.cos(0.5 * np.pi * t[sel]) ** 2
    return out


def brute_force_greedy(points, values, radius, eps, mu):
    """Independent reimplementation of the covering with plain loops."""
    K = len(values)
    w = sphere_area(points.shape[1], radius) / K
    unit = points / radius
    covered = [False] * K
    centers = []
    while True:
        open_idx = [i for i in range(K) if values[i] > eps and not covered[i]]
        if not open_idx:
            break
        energies = {}
        for i in open_idx:
            ball2 = 0.0
            for jj in range(K):
                ang = math.acos(max(-1.0, min(1.0, float(unit[i] @ unit[jj]))))
                if radius * ang <= 2.0:
                    ball2 += values[jj] * w
            energies[i] = ball2
        bmax = max(energies.values())
        if bmax < mu:
            raise ClearingOutViolated("brute force")
        near = [i for i in open_idx
                if energies[i] >= bmax - 1e-12 * max(1.0, abs(bmax))]
        best = max(near, key=lambda i: (values[i], -i))
        centers.append(best)
        for jj in range(K):
            ang = math.acos(max(-1.0, min(1.0, float(unit[best] @ unit[jj]))))
            if radius * ang <= 1.0:
                covered[jj] = True
    return centers, covered


def test_covering_zero_field():
    K, R = 256, 3.0
    pts, _ = _circle_samples(K, R)
    centers, covered = greedy_bad_discs(pts, np.zeros(K), R, 0.1, 0.05)
    assert len(centers) == 0
    assert not covered.any()


def test_covering_single_bump_matches_brute_force():
    K, R = 512, 3.0
    pts, theta = _circle_samples(K, R)
    eps = 0.25
    vals = _bump(theta, 1.0, 0.5 / R, 2 * eps)  # angular half-width 0.5/R
    c4 = sphere_holder_constant(pts, vals, R, 1.0)
    mu = clearing_out_threshold(eps, c4, 1.0, 2)
    centers, covered = greedy_bad_discs(pts, vals, R, eps, mu)
    assert len(centers) == 1
    # center lands on the bump peak
    peak = pts[int(np.argmax(vals))]
    assert np.allclose(pts[centers[0]], peak)
    ref_centers, ref_covered = brute_force_greedy(pts, vals, R, eps, mu)
    assert list(centers) == ref_centers
    assert list(covered) == ref_covered


def test_covering_antipodal_bumps():
    K, R = 512, 4.0
    pts, theta = _circle_samples(K, R)
    eps = 0.2
    vals = (_bump(theta, 0.0, 0.5 / R, 2 * eps)
            + _bump(theta, math.pi, 0.5 / R, 2 * eps))
    c4 = sphere_holder_constant(pts, vals, R, 1.0)
    mu = clearing_out_threshold(eps, c4, 1.0, 2)
    centers, covered = greedy_bad_discs(pts, vals, R, eps, mu)
    assert len(centers) == 2
    d = geodesic_distances(pts[centers], R)
    assert d[0, 1] > 2.0  # disjoint unit discs
    ref_centers, _ = brute_force_greedy(pts, vals, R, eps, mu)
    assert sorted(centers) == sorted(ref_centers)


def test_covering_violation_error():
    # an isolated spike above eps whose 2-ball energy stays below mu
    K, R = 512, 3.0
    pts, theta = _circle_samples(K, R)
    vals = np.zeros(K)
    vals[10] = 1.0
    with pytest.raises(ClearingOutViolated):
        greedy_bad_discs(pts, vals, R, eps=0.5, mu=1.0)


def test_sampled_field_covering():
    # a field's samples on one sphere, covered at a given threshold
    g = Grid(2, 0.05, 5.0)
    hot = ScalarField.from_function(
        g, lambda x: np.exp(-((x[0] - 3.0) ** 2 + x[1] ** 2) / 0.1))
    eps = 0.05
    c4 = holder_constant(hot, 1.0)
    mu = clearing_out_threshold(eps, c4, 1.0, 2)
    points, values = sample_sphere(hot, 3.0, 1024)
    centers, covered = greedy_bad_discs(points, values, 3.0, eps, mu)
    assert centers.size >= 1
    # every uncovered sample with e > eps would be a bug
    assert (values[~covered] <= eps).all()


# ---------------------------------------------------------------------------
# clearing-out soundness (threshold vs exhaustive check)


def _random_profile(rng, K, R):
    pts, theta = _circle_samples(K, R)
    modes = rng.integers(1, 6)
    vals = np.zeros(K)
    for _ in range(modes):
        k = rng.integers(1, 8)
        a = rng.uniform(0.2, 1.0)
        ph = rng.uniform(0, 2 * math.pi)
        vals += a * (1.0 + np.cos(k * theta + ph))
    vals += rng.uniform(0.0, 0.2)
    return pts, vals


def test_clearing_out_soundness_50_profiles():
    rng = np.random.default_rng(42)
    K = 1024
    total_low_balls = 0
    for trial in range(50):
        R = float(rng.uniform(2.0, 8.0))
        pts, vals = _random_profile(rng, K, R)
        eps = 0.3 * float(vals.max())
        c4 = sphere_holder_constant(pts, vals, R, 1.0)
        mu = clearing_out_threshold(eps, c4, 1.0, 2)
        violations = clearing_out_violations(pts, vals, R, eps, mu)
        assert violations == [], f"trial {trial}: {violations[:3]}"
        w = sphere_area(2, R) / K
        dist = geodesic_distances(pts, R)
        total_low_balls += int(((dist <= 2.0) @ (vals * w) < mu).sum())
    # the check must not be vacuous across the batch
    assert total_low_balls > 0


def test_clearing_out_soundness_3d():
    rng = np.random.default_rng(7)
    K = 2048
    R = 4.0
    pts = sphere_points(3, R, K)
    for trial in range(5):
        d = rng.standard_normal(3)
        d /= np.linalg.norm(d)
        vals = (1.0 + (pts / R) @ d) ** 2 + 0.1
        eps = 0.3 * float(vals.max())
        c4 = sphere_holder_constant(pts, vals, R, 1.0)
        mu = clearing_out_threshold(eps, c4, 1.0, 3)
        assert clearing_out_violations(pts, vals, R, eps, mu) == []


def test_disc_count_bounded_across_doublings():
    # field family with two fixed bumps per circle: N stays 2 across three
    # doublings of the slice radius
    counts = []
    for R in (3.0, 6.0, 12.0, 24.0):
        K = 1024
        pts, theta = _circle_samples(K, R)
        eps = 0.2
        vals = (_bump(theta, 0.3, 0.5 / R, 2 * eps)
                + _bump(theta, 0.3 + math.pi, 0.5 / R, 2 * eps))
        c4 = sphere_holder_constant(pts, vals, R, 1.0)
        mu = clearing_out_threshold(eps, c4, 1.0, 2)
        centers, _ = greedy_bad_discs(pts, vals, R, eps, mu)
        counts.append(len(centers))
    assert counts == [2, 2, 2, 2]


# ---------------------------------------------------------------------------
# the blocked sweep against dense K x K references


def dense_holder(points, values, radius, alpha=1.0, max_dist=1.0):
    dist = geodesic_distances(points, radius)
    diff = np.abs(values[:, None] - values[None, :])
    sel = (dist > 1e-12) & (dist <= max_dist)
    if not np.any(sel):
        return 0.0
    return float((diff[sel] / dist[sel] ** alpha).max())


def dense_greedy(points, values, radius, eps, mu):
    K = len(values)
    w = sphere_area(points.shape[1], radius) / K
    dist = geodesic_distances(points, radius)
    in2, in1 = dist <= 2.0, dist <= 1.0
    covered = np.zeros(K, dtype=bool)
    hot = values > eps
    centers = []
    while True:
        open_idx = np.flatnonzero(hot & ~covered)
        if open_idx.size == 0:
            break
        ball2 = in2[open_idx] @ (values * w)
        bmax = float(ball2.max())
        if bmax < mu:
            raise ClearingOutViolated("dense reference")
        near = open_idx[ball2 >= bmax - 1e-12 * max(1.0, abs(bmax))]
        pick = int(near[np.lexsort((near, -values[near]))[0]])
        centers.append(pick)
        covered |= in1[pick]
    return np.array(centers, dtype=int), covered


def dense_ball2(points, values, radius):
    w = sphere_area(points.shape[1], radius) / len(values)
    return (geodesic_distances(points, radius) <= 2.0) @ (values * w)


def dense_violations(points, values, radius, eps, mu):
    dist = geodesic_distances(points, radius)
    ball2 = dense_ball2(points, values, radius)
    out = []
    for i in np.flatnonzero(ball2 < mu):
        inner = values[dist[i] <= 1.0]
        if inner.size and inner.max() > eps:
            out.append((int(i), float(ball2[i]), float(inner.max())))
    return out


def _random_slice(rng, n, K):
    """A smooth random profile on K samples of a sphere of random radius,
    small enough for K samples to have neighbours within distance 1."""
    lo, hi = (0.72, 0.86) if K < 16 else (0.6, 1.5) if K < 100 else (2.0, 6.0)
    R = float(rng.uniform(lo, hi))
    pts = sphere_points(n, R, K)
    vals = np.full(K, rng.uniform(0.0, 0.2))
    for _ in range(int(rng.integers(1, 5))):
        d = rng.standard_normal(n)
        d /= np.linalg.norm(d)
        vals += rng.uniform(0.2, 1.0) * (1.0 + np.cos(
            rng.uniform(0.5, 2.0) * pts @ d + rng.uniform(0, 2 * math.pi)))
    return R, pts, vals


def _gap_threshold(ball2):
    """A level in the widest gap between the middle half of the sorted
    2-ball energies (between all of them when the middle half is flat to
    rounding, as when most 2-balls hold the whole sphere), so no energy
    sits within rounding of it."""
    srt = np.sort(ball2)
    lo = len(srt) // 4
    for start, stop in ((lo, 3 * lo + 1), (0, len(srt))):
        gaps = np.diff(srt[start:stop])
        k = start + int(np.argmax(gaps))
        if srt[k + 1] - srt[k] > 1e-9 * srt[-1]:
            break
    assert srt[k + 1] - srt[k] > 1e-9 * srt[-1], "no gap wider than rounding"
    return 0.5 * (srt[k] + srt[k + 1])


def _matches_dense(n, R, pts, vals):
    """Check the blocked sweep, covering and violation scan on one slice
    against the dense references; returns (centers, violations) found."""
    c4 = sphere_holder_constant(pts, vals, R, 1.0)
    assert c4 == dense_holder(pts, vals, R, 1.0)
    assert (sphere_holder_constant(pts, vals, R, 0.5, max_dist=1.5)
            == dense_holder(pts, vals, R, 0.5, max_dist=1.5))
    # the group sweep sums each 2-ball in another order than the dense
    # matrix-vector product
    ball2 = dense_ball2(pts, vals, R)
    got = discs._sweep(pts / R, vals, R)
    np.testing.assert_allclose(got, ball2, rtol=1e-12, atol=0)
    eps = 0.3 * float(vals.max())
    mu = clearing_out_threshold(eps, c4, 1.0, n)
    centers, covered = greedy_bad_discs(pts, vals, R, eps, mu)
    ref_centers, ref_covered = dense_greedy(pts, vals, R, eps, mu)
    assert centers.tolist() == ref_centers.tolist()
    assert np.array_equal(covered, ref_covered)
    # a level above the threshold so that violations exist
    mu_high = _gap_threshold(ball2)
    got = clearing_out_violations(pts, vals, R, eps, mu_high)
    ref = dense_violations(pts, vals, R, eps, mu_high)
    assert [(i, v) for i, _, v in got] == [(i, v) for i, _, v in ref]
    assert [b for _, b, _ in got] == pytest.approx(
        [b for _, b, _ in ref], rel=1e-12)
    return len(centers), len(got)


@pytest.mark.parametrize("n", [2, 3])
# below, at, just past and not a multiple of a block
@pytest.mark.parametrize("K", [8, 50, 64, 65, 1000])
def test_blocked_sweep_matches_dense(n, K):
    rng = np.random.default_rng(100 * n + K)
    centers_seen = violations_seen = 0
    for _ in range(4):
        R, pts, vals = _random_slice(rng, n, K)
        found = _matches_dense(n, R, pts, vals)
        centers_seen += found[0]
        violations_seen += found[1]
    assert centers_seen > 0 and violations_seen > 0
    # duplicated samples: pairs at distance 0 drop out of the Holder ratio
    # and count in each other's balls, across block boundaries too
    R, pts, vals = _random_slice(rng, n, K)
    dup = np.concatenate([np.arange(K), np.arange(0, K, 3)])
    _matches_dense(n, R, pts[dup], vals[dup])


def test_sweep_visits_each_pair_once(monkeypatch):
    # each (member, sample) pair is settled once per 2-ball: by its group's
    # bound or by one test in a ring block, never twice. A pair counted
    # twice in a 2-ball would add its weight twice, so with unit values
    # every 2-ball holds the dense count of samples within distance 2. The
    # Holder search forms each unordered pair of samples at most once
    members = discs._members
    dots = discs._dots
    pairs = []
    holder_pairs = []

    def recorded(rows, cols, cols32, t=None, arc=None, near=None):
        # the ring blocks test a group's members against the samples near;
        # the group centres' test has no arc
        if arc is not None:
            r = [index[row.tobytes()] for row in rows]
            pairs.extend(zip(np.repeat(r, len(near)).tolist(),
                             np.tile(near, len(r)).tolist()))
        return members(rows, cols, cols32, t, arc, near)

    def formed(a, b, out=None, term=None):
        # the Holder search pairs column i of a with column i of b
        r = [index[col.tobytes()] for col in a.T]
        c = [index[col.tobytes()] for col in b.T]
        holder_pairs.extend(tuple(sorted(p)) for p in zip(r, c))
        return dots(a, b, out, term)

    for n, K in ((2, 1000), (3, 256), (3, 65)):
        R, pts, _ = _random_slice(np.random.default_rng(K), n, K)
        unit = pts / R
        index = {row.tobytes(): i for i, row in enumerate(unit)}
        monkeypatch.setattr(discs, "_members", recorded)
        pairs.clear()
        ball2 = discs._sweep(unit, np.ones(K), R)
        monkeypatch.setattr(discs, "_members", members)
        assert pairs
        assert len(set(pairs)) == len(pairs), (n, K)
        count = (geodesic_distances(pts, R) <= 2.0).sum(axis=1)
        np.testing.assert_allclose(ball2 / (sphere_area(n, R) / K), count,
                                   rtol=1e-12, atol=0)
        monkeypatch.setattr(discs, "_dots", formed)
        for max_dist in (1.0, 4.0 * R):
            holder_pairs.clear()
            sphere_holder_constant(pts, np.ones(K), R, 1.0, max_dist)
            assert holder_pairs
            assert len(set(holder_pairs)) == len(holder_pairs), (n, K)
            assert all(i != j for i, j in holder_pairs)
        # beyond pi every pair is in reach: each one is formed exactly once
        assert len(holder_pairs) == K * (K - 1) // 2
        monkeypatch.setattr(discs, "_dots", dots)


def _unit_lattice_with_straddlers(n, K):
    """K lattice points on the unit sphere plus exact duplicates and pairs
    of samples one rounding step apart on either side of a face of the
    group boxes (x = _BOX, and z = 0 in 3D)."""
    unit = sphere_points(n, 1.0, K)
    x = discs._BOX
    extra = []
    for xi in (x, np.nextafter(x, 0.0), np.nextafter(x, 1.0)):
        if n == 2:
            extra.append([xi, math.sqrt(1.0 - xi * xi)])
        else:
            extra.append([xi, math.sqrt(1.0 - xi * xi), 0.0])
    if n == 3:
        extra += [[0.6, 0.8, 0.0], [0.6, 0.8, -1e-17], [0.6, 0.8, 1e-17]]
    dup = np.arange(0, K, 5)
    return np.concatenate([unit, np.array(extra), unit[dup]])


@pytest.mark.parametrize("n", [2, 3])
def test_sweep_is_exact_at_extreme_angles(n):
    # 2-ball and Holder angles near 0, just below, at and above pi: the
    # group bound may settle a pair only where the exact test agrees (and
    # a cosine rounded below -1 is still at an angle <= pi)
    assert discs._cos_at(np.array([-1e-300, math.pi, 4.0])).tolist() == [
        np.inf, -np.inf, -np.inf]
    unit = _unit_lattice_with_straddlers(n, 200)
    K = len(unit)
    # positive values: one wrong mask entry among the K samples moves a
    # 2-ball energy by far more than rtol 1e-12
    rng = np.random.default_rng(n)
    vals = rng.uniform(0.1, 1.1, K)
    angle = geodesic_distances(unit, 1.0)
    diff = np.abs(vals[:, None] - vals[None, :])
    for theta in (1e-9, 1e-4, 0.5, math.pi - 1e-6, math.pi - 1e-12,
                  math.pi, math.pi + 1e-12, math.pi + 1e-6, 4.0):
        radius = 2.0 / theta
        dist = radius * angle
        w = sphere_area(n, radius) / K
        ball2 = discs._sweep(unit, vals, radius)
        np.testing.assert_allclose(ball2, (dist <= 2.0) @ (vals * w),
                                   rtol=1e-12, atol=0)
        # the Holder search divides its points by the radius itself
        pts = unit * radius
        dist = geodesic_distances(pts, radius)
        for alpha in (1.0, 0.5):
            for max_dist in (1e-9 * radius, 2.0, math.pi * radius,
                             4.0 * radius):
                sel = (dist > 1e-12) & (dist <= max_dist)
                dense = (float((diff[sel] / dist[sel] ** alpha).max())
                         if sel.any() else 0.0)
                c4 = sphere_holder_constant(pts, vals, radius, alpha,
                                            max_dist)
                assert c4 == dense, (theta, alpha, max_dist)


def test_sweep_prunes_cosines(monkeypatch):
    # the group bound settles most pairs: on a 3D lattice of K = 4096
    # samples the sweep and the Holder search together test at most 0.7 of
    # the K (K + 1) / 2 pairs of the upper triangle, group centres
    # included, at 2-ball angles either side of pi / 2. The Holder distance
    # is capped as bad_disc_pipeline caps it, with a floor 1e4 times the
    # sphere ratio, as the grid constant is on the analysis-3d benchmark's
    # slices (caps near 2e-4)
    K = 4096
    unit = sphere_points(3, 1.0, K)
    rng = np.random.default_rng(5)
    d = rng.standard_normal(3)
    vals = 0.2 + (1.0 + unit @ (d / np.linalg.norm(d))) ** 2
    formed = []
    members = discs._members
    dots = discs._dots

    def counted(rows, cols, cols32, t=None, arc=None, near=None):
        formed.append(len(rows) * (cols.shape[1] if near is None
                                   else len(near)))
        return members(rows, cols, cols32, t, arc, near)

    def offset_counted(a, b, out=None, term=None):
        formed.append(a.shape[1])
        return dots(a, b, out, term)

    for theta in (1.1, 1.4, 2.0):
        radius = 2.0 / theta
        floor = 1e4 * discs.sphere_holder_constant(unit * radius, vals,
                                                   radius)
        cap = discs._holder_cap(vals, 1.0, 1.0, floor)
        assert 0.0 < cap < 1.0
        formed.clear()
        monkeypatch.setattr(discs, "_members", counted)
        discs._sweep(unit, vals, radius)
        monkeypatch.setattr(discs, "_members", members)
        monkeypatch.setattr(discs, "_dots", offset_counted)
        discs.sphere_holder_constant(unit * radius, vals, radius, 1.0, cap)
        monkeypatch.setattr(discs, "_dots", dots)
        assert sum(formed) <= 0.7 * K * (K + 1) / 2, (theta, sum(formed))


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def _coordinate_sum(rows, cols):
    out = rows[:, None, 0] * cols[None, 0, :]
    for k in range(1, rows.shape[1]):
        out = out + rows[:, None, k] * cols[None, k, :]
    return out


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("K", [8, 65, 1000])
def test_cosine_blocks_sum_coordinates_in_order(monkeypatch, n, K):
    # every float64 cosine has the bits of (a0*b0 + a1*b1) + a2*b2,
    # whichever test forms it: the Holder search's offsets, and the pairs
    # that the float32 filter leaves open in the 2-ball sweep's ring blocks,
    # the covering's rows and the violation scan's blocks, in blocks of one
    # row, one column, a few columns and all K. This fails if those
    # cosines move to an einsum that fuses multiply and add, or to a BLAS
    # product
    rng = np.random.default_rng(7 * K + n)
    R = float(rng.uniform(1.3, 4.7))
    unit = sphere_points(n, R, K) / R
    ref = _coordinate_sum(unit, unit.T)
    assert np.array_equal(_bits(ref), _bits(ref.T))

    # samples are told apart by their coordinates, and a group centre is
    # none of them unless its group has one member
    index = {row.tobytes(): i for i, row in enumerate(unit)}
    shapes = []
    offsets = []
    exact = []
    members = discs._members
    dots = discs._dots

    def dots_checked(a, b, out=None, term=None):
        # the Holder search's offset k pairs two views of one sorted copy
        # of the samples (far offsets share no element, only its buffer);
        # the other tests pair gathered copies of rows and columns
        if np.may_share_memory(a, b):
            offsets.append(K - a.shape[1])
        cos = dots(a, b, out, term)
        r = [index.get(v.tobytes()) for v in a.T]
        c = [index.get(v.tobytes()) for v in b.T]
        if None not in r + c:
            assert np.array_equal(_bits(cos), _bits(ref[r, c]))
            exact.append(len(cos))
        return cos

    def members_checked(rows, cols, cols32, t=None, arc=None, near=None):
        shapes.append((len(rows), cols.shape[1] if near is None
                       else len(near)))
        return members(rows, cols, cols32, t, arc, near)

    monkeypatch.setattr(discs, "_members", members_checked)
    monkeypatch.setattr(discs, "_dots", dots_checked)
    vals = rng.uniform(0.5, 1.5, K)
    # radii of powers of two keep points / radius bit for bit on unit
    for radius in (2.0, 4.0):
        pts = unit * radius
        discs._sweep(unit, vals, radius)
        for max_dist in (1.0, 4.0 * radius):
            sphere_holder_constant(pts, vals, radius, 1.0, max_dist)
        greedy_bad_discs(pts, vals, radius, 1.0, 1e-9)
        clearing_out_violations(pts, vals, radius, 1.0, np.inf)
    # a ring block of one sample and of a few, which on 8 samples the sweep
    # need not form; each threshold is a cosine of the block, which leaves
    # that pair to the exact test
    cols = unit.T.copy()
    for near in ([1], [1, 2, 5]):
        t = float(ref[0, near[-1]])
        mask = discs._members(unit[:2], cols, cols.astype(np.float32), t,
                              near=np.array(near))
        assert np.array_equal(mask, ref[:2, near] >= t)
    # beyond pi the Holder search reaches every offset
    assert max(offsets) == K - 1
    assert exact
    assert any(r == 1 for r, _ in shapes)
    assert any(c == 1 for _, c in shapes)
    assert any(1 < c < K for _, c in shapes)
    assert any(r > 1 and c == K for r, c in shapes)


def _near_threshold(rng, row, cosines):
    """Unit vectors at the given cosines from the unit vector row, each in a
    random direction from it."""
    out = []
    for c in cosines:
        p = rng.standard_normal(len(row))
        p -= (p @ row) * row
        p /= np.linalg.norm(p)
        out.append(c * row + math.sqrt(max(0.0, 1.0 - c * c)) * p)
    return np.array(out)


@pytest.mark.parametrize("n", [2, 3])
def test_members_decide_pairs_at_the_threshold_exactly(monkeypatch, n):
    # pairs whose float64 cosines lie within 1e-7 of the threshold on both
    # sides, far inside the float32 error: the masks equal the exact test on
    # the explicit coordinate sums, for disc angles below pi, at pi and
    # beyond (antipodes and cosines rounded below -1 included), duplicate
    # samples, one threshold per row, rings of one sample and a block split
    # into tiles. With a float32 margin of 1e-8 the filter decides some of
    # these pairs the wrong way, which the test must see
    rng = np.random.default_rng(31 * n)
    base = rng.standard_normal((8, n))
    base /= np.linalg.norm(base, axis=1)[:, None]
    # 128 rows, each base row 16 times: more than one tile
    rows = base[np.arange(128) % 8]
    offsets = np.linspace(-1e-7, 1e-7, 161)

    def cases():
        for radius, dist in ((1.7, 2.0), (3.0, 1.0), (0.7, 1.0),
                             (2.0 / math.pi, 2.0), (0.5, 2.0)):
            t = discs._threshold(radius, dist)
            cols = np.concatenate(
                [_near_threshold(rng, b, np.clip(t + offsets, -1.0, 1.0))
                 for b in base] + [base, -base])
            yield cols.T.copy(), t, (radius, dist)

    def masks():
        out = []
        for cols, t, (radius, dist) in cases():
            cols32 = cols.astype(np.float32)
            cos = _coordinate_sum(rows, cols)
            exact = radius * np.arccos(np.clip(cos, -1.0, 1.0)) <= dist
            assert rows.shape[0] * cols.size > _kernels._GEMM_MACS
            out.append((discs._members(rows, cols, cols32,
                                       arc=(radius, dist)), exact))
            for near in (np.array([len(base) * len(offsets) // 2]),
                         np.arange(0, cols.shape[1], 7)):
                out.append((discs._members(rows, cols, cols32,
                                           arc=(radius, dist), near=near),
                            exact[:, near]))
            # one threshold per row, each within 1e-7 of a cosine of its row
            pick = rng.integers(cols.shape[1], size=len(rows))
            t_rows = (cos[np.arange(len(rows)), pick]
                      + rng.uniform(-1e-7, 1e-7, len(rows)))[:, None]
            out.append((discs._members(rows, cols, cols32, t_rows),
                        cos >= t_rows))
        return out

    for got, want in masks():
        assert np.array_equal(got, want)
    monkeypatch.setattr(discs, "_F32", 1e-8)
    assert not all(np.array_equal(got, want) for got, want in masks())


@pytest.mark.parametrize("n", [2, 3])
def test_sphere_holder_makes_no_einsum_call(monkeypatch, n):
    # the Holder search sums its cosines with separate multiply and add
    # ufuncs, so C4 does not depend on whether a numpy build's einsum
    # fuses multiply and add
    R, pts, vals = _random_slice(np.random.default_rng(17 * n), n, 1000)
    cases = [(alpha, max_dist) for alpha in (1.0, 0.5)
             for max_dist in (1.0, 4.0 * R)]
    dense = [dense_holder(pts, vals, R, a, d) for a, d in cases]

    def refused(*args, **kwargs):
        raise AssertionError("np.einsum called")

    monkeypatch.setattr(discs.np, "einsum", refused)
    assert [sphere_holder_constant(pts, vals, R, a, d)
            for a, d in cases] == dense


@pytest.mark.parametrize("n", [2, 3])
def test_covering_decides_no_membership_by_einsum_cosines(monkeypatch, n):
    # the sweep, the greedy covering and the violation scan form no
    # einsum cosine matrix, so their masks do not depend on whether a numpy
    # build's einsum fuses multiply and add; they still match the dense
    # references
    einsum = np.einsum

    def guarded(subscripts, *operands, **kwargs):
        if subscripts.replace(" ", "") == "ik,kj->ij":
            raise AssertionError("einsum cosines")
        return einsum(subscripts, *operands, **kwargs)

    monkeypatch.setattr(discs.np, "einsum", guarded)
    rng = np.random.default_rng(19 * n)
    centers_seen = violations_seen = 0
    for K in (65, 1000):
        for _ in range(2):
            R, pts, vals = _random_slice(rng, n, K)
            found = _matches_dense(n, R, pts, vals)
            centers_seen += found[0]
            violations_seen += found[1]
    assert centers_seen > 0 and violations_seen > 0


@pytest.mark.parametrize("n, K", [(2, 50), (2, 1000), (3, 65),
                                  (3, 1000)])
def test_capped_holder_search_is_exact(n, K):
    # a caller taking max(floor, c4) and searching only within
    # _holder_cap's distance gets the bits of the full search
    rng = np.random.default_rng(11 * K + n)
    R, pts, vals = _random_slice(rng, n, K)
    # one hot sample: the best pair sits at the nearest-neighbour distance,
    # exactly where the cap has to reach
    spike = np.zeros(K)
    spike[int(rng.integers(K))] = 1.0
    slices = [(R, pts, vals), (R, pts, spike)]
    if n == 2:
        # neighbours 1.2 apart, so with max_dist 1.5 the cap passes 1
        sparse = 16 * 1.2 / (2 * math.pi)
        slices.append((sparse, _circle_samples(16, sparse)[0],
                       np.eye(16)[3]))
    capped = 0
    for alpha in (1.0, 0.5):
        for max_dist in (1.0, 1.5):
            for r, p, v in slices:
                dense = dense_holder(p, v, r, alpha, max_dist)
                if dense == 0:
                    continue
                floors = (0.5 * dense, np.nextafter(dense, 0), dense,
                          np.nextafter(dense, np.inf), 2 * dense, 50 * dense)
                for f in map(float, floors):
                    cap = discs._holder_cap(v, alpha, max_dist, f)
                    got = sphere_holder_constant(p, v, r, alpha, cap)
                    assert max(f, got) == max(f, dense)
                    capped += cap < max_dist
            # constant values: no pair has a ratio, at any floor
            const = np.full(K, float(vals[0]))
            for f in (1e-300, 1e-3, 1.0):
                cap = discs._holder_cap(const, alpha, max_dist, f)
                got = sphere_holder_constant(pts, const, R, alpha, cap)
                assert got == 0.0
    assert capped > 0


@pytest.mark.parametrize("n, K", [(2, 64), (2, 1000), (3, 65), (3, 1000)])
def test_holder_window_edges_match_dense(n, K):
    # the sorted-window search at the edges of its window: no reach, one
    # ulp either side of the closest pair's distance, and half the sphere
    # or more; on lattices whose samples share last coordinates (mirrored
    # 2D samples share a y), with duplicated samples, and with one spike
    # on the equator, whose nearest pairs are the ones closest to vertical
    # (their last coordinates differ by almost their distance)
    rng = np.random.default_rng(13 * K + n)
    R = K / (4 * math.pi) if n == 2 else math.sqrt(K / (4 * math.pi))
    pts = sphere_points(n, R, K)
    if n == 2:
        _, counts = np.unique(pts[:, -1], return_counts=True)
        assert counts.max() > 1
    dup = np.concatenate([np.arange(K), np.arange(0, K, 7)])
    spike = np.eye(K)[int(np.argmin(np.abs(pts[:, -1])))]
    for p, v in ((pts, rng.random(K)), (pts[dup], rng.random(K)[dup]),
                 (pts, spike)):
        dist = geodesic_distances(p, R)
        moved = np.abs(v[:, None] - v[None, :]) > 0
        closest = float(dist[(dist > 1e-12) & moved].min())
        for max_dist in (0.0, np.nextafter(closest, 0.0), closest,
                         np.nextafter(closest, np.inf), math.pi * R,
                         4.0 * R):
            for alpha in (1.0, 0.5):
                assert sphere_holder_constant(p, v, R, alpha, max_dist) == (
                    dense_holder(p, v, R, alpha, max_dist)), (max_dist, alpha)
        # the window edge decides: no pair with differing values is closer
        below = np.nextafter(closest, 0.0)
        assert sphere_holder_constant(p, v, R, 1.0, below) == 0.0
        assert sphere_holder_constant(p, v, R, 1.0, closest) > 0.0


# the grid constant far below, just below and far above the sphere ratio
@pytest.mark.parametrize("scale", [1e-4, 0.9, 1e4])
def test_pipeline_report_does_not_depend_on_the_cap(monkeypatch, scale):
    # the report equals the one from an uncapped sphere search; the bump is
    # narrow enough that the grid constant caps the search below distance 1
    g = Grid(3, 0.2, 4.0)
    e = ScalarField.from_function(g, lambda x: np.exp(
        -10.0 * ((x[0] - 1.5) ** 2 + x[1] ** 2 + x[2] ** 2)))
    R, eps, alpha, K = 1.0, 0.05, 0.5, 1024
    s_r, _ = select_good_radius(e, R, K=K)
    pts, vals = sample_sphere(e, s_r, K)
    c4_sphere = sphere_holder_constant(pts, vals, s_r, alpha)
    c4_grid = scale * c4_sphere
    if scale > 0.5:
        assert discs._holder_cap(vals, alpha, 1.0, c4_grid) < 1.0
    monkeypatch.setattr(discs, "holder_constant", lambda e, alpha: c4_grid)

    def report():
        rep = bad_disc_pipeline(e, R, eps, alpha=alpha, K=K)
        return (rep.to_dict(), rep.points.tobytes(), rep.values.tobytes(),
                rep.covered.tobytes(), rep.centers.tobytes())

    capped = report()
    monkeypatch.setattr(discs, "_holder_cap",
                        lambda values, alpha, max_dist, floor: max_dist)
    uncapped = report()
    assert capped == uncapped
    assert capped[0]["count"] > 0
    assert capped[0]["c4"] == max(c4_grid, c4_sphere)


@pytest.mark.parametrize("K", [200, 1000])
def test_blocked_sweep_matches_dense_on_disc_edges(K):
    # equi-angular circle samples 1/4 apart in arc length: every sample has
    # neighbours at distance 1 and 2 up to rounding, where only the exact
    # arccos test can decide
    R = K / (8 * math.pi)
    pts, theta = _circle_samples(K, R)
    rng = np.random.default_rng(K)
    vals = 0.1 + _bump(theta, 1.0, 3.0 / R, 1.0) + 0.05 * rng.random(K)
    c4 = sphere_holder_constant(pts, vals, R, 1.0)
    assert c4 == dense_holder(pts, vals, R, 1.0)
    for eps in (0.3, 0.6):
        mu = clearing_out_threshold(eps, c4, 1.0, 2)
        centers, covered = greedy_bad_discs(pts, vals, R, eps, mu)
        ref_centers, ref_covered = dense_greedy(pts, vals, R, eps, mu)
        assert len(centers) > 0
        assert centers.tolist() == ref_centers.tolist()
        assert np.array_equal(covered, ref_covered)

def test_members_decide_at_the_threshold_like_arccos():
    # cosines packed within a few ulps and within 3e-9 of the threshold,
    # each the cosine of a unit column with the row e_0: the arc-mode mask
    # must equal the exact test radius*arccos <= dist on them
    radius, dist = 3.0, 2.0
    t = math.cos(dist / radius)
    ulps = t + np.arange(-40, 41) * np.spacing(t)
    band = t + np.linspace(-3e-9, 3e-9, 121)
    cos = np.concatenate([ulps, band, [-1.0, 1.0]])
    cols = np.stack([cos, np.sqrt(1.0 - cos * cos), np.zeros_like(cos)])
    row = np.array([[1.0, 0.0, 0.0]])
    assert np.array_equal(_coordinate_sum(row, cols)[0], cos)
    cols32 = cols.astype(np.float32)
    mask = discs._members(row, cols, cols32, arc=(radius, dist))
    assert np.array_equal(mask[0], radius * np.arccos(cos) <= dist)
    assert mask.any() and not mask.all()
    # a disc wider than half the circumference holds every sample
    assert discs._members(row, cols, cols32, arc=(0.5, 2.0)).all()


def test_grid_constant_is_formed_once_per_field(monkeypatch):
    # bad-discs runs one pipeline per radius on one energy density: the
    # grid constant is formed once per field and alpha, and a new field
    # forms it again
    g = Grid(3, 0.2, 4.0)
    e = ScalarField.from_function(
        g, lambda x: np.exp(-((x[0] - 1.5) ** 2 + x[1] ** 2 + x[2] ** 2)))
    calls = []
    holder = discs.holder_constant

    def counted(e, alpha=1.0):
        calls.append(alpha)
        return holder(e, alpha)

    monkeypatch.setattr(discs, "holder_constant", counted)

    def report(field, R=1.2, alpha=1.0):
        rep = bad_disc_pipeline(field, R, 0.05, alpha=alpha, K=512)
        return (rep.to_dict(), rep.points.tobytes(), rep.values.tobytes(),
                rep.covered.tobytes(), rep.centers.tobytes())

    first = report(e)
    assert calls == [1.0]
    assert report(e) == first
    report(e, R=1.0)
    assert calls == [1.0]
    report(e, alpha=0.5)
    assert calls == [1.0, 0.5]
    assert report(ScalarField(g, e.values.copy())) == first
    assert calls == [1.0, 0.5, 1.0]
    assert first[0]["c4"] >= holder(e, 1.0) > 0


def test_pipeline_memory_is_blocked():
    # K = 4096 on a 3D slice: a dense K x K float64 matrix alone is 128 MB
    g = Grid(3, 0.2, 4.0)
    e = ScalarField.from_function(
        g, lambda x: np.exp(-((x[0] - 1.5) ** 2 + x[1] ** 2 + x[2] ** 2)))
    tracemalloc.start()
    try:
        rep = bad_disc_pipeline(e, 1.2, 0.05, K=4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.count > 0
    assert peak < 96 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"


@pytest.mark.parametrize("radius", [-1.2, 0.0, float("nan")])
def test_greedy_bad_discs_refuses_a_radius_not_positive(radius):
    pts = sphere_points(3, 1.0, 64)
    with pytest.raises(ValueError, match="must be positive"):
        greedy_bad_discs(pts, np.ones(64), radius, 0.01, 1e-9)


@pytest.mark.parametrize("radius", [-1.2, 0.0, float("nan")])
def test_sphere_holder_constant_refuses_a_radius_not_positive(radius):
    pts = sphere_points(3, 1.0, 64)
    with pytest.raises(ValueError, match="must be positive"):
        discs.sphere_holder_constant(pts, np.arange(64.0), radius)


@pytest.mark.parametrize("radius", [-1.2, 0.0, float("nan")])
def test_clearing_out_violations_refuses_a_radius_not_positive(radius):
    pts = sphere_points(3, 1.0, 64)
    with pytest.raises(ValueError, match="must be positive"):
        discs.clearing_out_violations(pts, np.ones(64), radius, 0.01, 1e-9)
