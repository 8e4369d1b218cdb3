"""Single-zero potentials W: R^m -> R and numeric checks of their standing assumptions.

Four built-in families, all vanishing exactly at one point ``zero`` and
positive elsewhere:

* ``quadratic``          W(u) = 1/2 |u - zero|^2
* ``power``              W(u) = |u - zero|^q, q >= 2
* ``anisotropic``        W(u) = sum_i c_i (u_i - zero_i)^{p_i}, p_i even
* ``product-perturbed``  W(u) = |u - zero|^2 (1 + 1/2 sin^2(u_1))

The first two span the nondegenerate (positive-definite Hessian) and
degenerate (q > 2) regimes; ``anisotropic`` mixes both per component and,
with a negative coefficient, doubles as a deliberately invalid potential
for testing the assumption checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._kernels import norm2

FAMILIES = ("quadratic", "power", "anisotropic", "product-perturbed")


def _as_vec(x) -> np.ndarray:
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1:
        raise ValueError("expected a 1-d point")
    return v


def _check_finite(u: np.ndarray) -> None:
    if not np.all(np.isfinite(u)):
        raise ValueError("non-finite input point")


@dataclass(frozen=True)
class Potential:
    """A potential family instance plus the radii/constants its checks use.

    ``lower_coef`` and ``exponent`` parametrize the radial lower bound
    W(zero + r*nu) >= lower_coef * r**exponent for r in (0, lower_radius);
    ``monot_radius`` is the radius up to which the radial sections
    r -> W(zero + r*nu) are expected to increase.
    """

    family: str
    zero: np.ndarray
    exponent: float = 2.0
    lower_coef: float = 0.5
    lower_radius: float = 1.0
    monot_radius: float = 1.0
    coeffs: np.ndarray = field(default=None)
    powers: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        object.__setattr__(self, "zero", _as_vec(self.zero))
        m = self.zero.size
        c = np.ones(m) if self.coeffs is None else _as_vec(self.coeffs)
        p = np.full(m, 2.0) if self.powers is None else _as_vec(self.powers)
        if c.size != m or p.size != m:
            raise ValueError("coeffs/powers must match the dimension of zero")
        if self.family == "anisotropic":
            if not np.all(p >= 2) or not np.allclose(p % 2, 0):
                raise ValueError("anisotropic powers must be even integers >= 2")
        if self.exponent < 2:
            raise ValueError("exponent must be >= 2")
        if self.lower_coef <= 0 or self.lower_radius <= 0 or self.monot_radius <= 0:
            raise ValueError("lower_coef, lower_radius, monot_radius must be > 0")
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "powers", p)

    @property
    def m(self) -> int:
        return self.zero.size

    # -- pointwise evaluation ------------------------------------------------

    def value(self, u) -> float:
        u = _as_vec(u)
        _check_finite(u)
        return float(self.value_field(u.reshape(self.m, 1))[0])

    def grad(self, u) -> np.ndarray:
        u = _as_vec(u)
        _check_finite(u)
        return self.grad_field(u.reshape(self.m, 1))[:, 0].copy()

    def hessian(self, u) -> np.ndarray:
        u = _as_vec(u)
        _check_finite(u)
        m = self.m
        d = u - self.zero
        rho2 = float(d @ d)
        if self.family == "quadratic":
            return np.eye(m)
        if self.family == "power":
            q = self.exponent
            if rho2 == 0.0:
                return 2.0 * np.eye(m) if q == 2.0 else np.zeros((m, m))
            h = q * rho2 ** (q / 2 - 1) * np.eye(m)
            h += q * (q - 2.0) * rho2 ** (q / 2 - 2) * np.outer(d, d)
            return h
        if self.family == "anisotropic":
            diag = self.coeffs * self.powers * (self.powers - 1) \
                * np.abs(d) ** (self.powers - 2)
            return np.diag(diag)
        # product-perturbed: W = rho^2 * g(u_1), g = 1 + sin(u_1)^2 / 2
        g = 1.0 + 0.5 * np.sin(u[0]) ** 2
        gp = 0.5 * np.sin(2.0 * u[0])
        gpp = np.cos(2.0 * u[0])
        h = 2.0 * g * np.eye(m)
        e0 = np.zeros(m)
        e0[0] = 1.0
        h += 2.0 * gp * (np.outer(d, e0) + np.outer(e0, d))
        h += rho2 * gpp * np.outer(e0, e0)
        return h

    # -- vectorized evaluation (channels-first arrays) -----------------------

    def value_field(self, vals: np.ndarray) -> np.ndarray:
        """W at every point of a (m, ...) array; returns (...)."""
        d = vals - self.zero.reshape((self.m,) + (1,) * (vals.ndim - 1))
        rho2 = norm2(d)
        if self.family == "quadratic":
            rho2 *= 0.5
            return rho2
        if self.family == "power":
            if self.exponent == 4.0:
                # the generic power loop is far slower, with the same bits
                return np.square(rho2, out=rho2)
            rho2 **= self.exponent / 2.0
            return rho2
        if self.family == "anisotropic":
            shape = (self.m,) + (1,) * (vals.ndim - 1)
            terms = self.coeffs.reshape(shape) * np.abs(d) ** self.powers.reshape(shape)
            return terms.sum(axis=0)
        return rho2 * (1.0 + 0.5 * np.sin(vals[0]) ** 2)

    def grad_field(self, vals: np.ndarray) -> np.ndarray:
        """grad W at every point of a (m, ...) array; returns (m, ...)."""
        d = vals - self.zero.reshape((self.m,) + (1,) * (vals.ndim - 1))
        rho2 = norm2(d)
        if self.family == "quadratic":
            return d.copy()
        if self.family == "power":
            # q rho2^(q/2 - 1) is 0 at rho = 0 for q > 2, and for q = 2 it
            # multiplies d = 0 there, so no case split is needed
            q = self.exponent
            fac = q * rho2 ** (q / 2.0 - 1.0)
            for c in range(self.m):
                d[c] *= fac
            return d
        if self.family == "anisotropic":
            shape = (self.m,) + (1,) * (vals.ndim - 1)
            c = self.coeffs.reshape(shape)
            p = self.powers.reshape(shape)
            return c * p * d * np.abs(d) ** (p - 2)
        g = 1.0 + 0.5 * np.sin(vals[0]) ** 2
        out = 2.0 * d * g
        out[0] += rho2 * 0.5 * np.sin(2.0 * vals[0])
        return out


def quadratic(zero, **kw) -> Potential:
    return Potential("quadratic", zero, exponent=2.0, lower_coef=0.5, **kw)


def power(zero, q, **kw) -> Potential:
    return Potential("power", zero, exponent=float(q), lower_coef=1.0, **kw)


def anisotropic(zero, coeffs, powers, **kw) -> Potential:
    coeffs = _as_vec(coeffs)
    powers = _as_vec(powers)
    q = float(powers.max())
    m = len(_as_vec(zero))
    cmin = coeffs.min()
    # c_min * m^{-q/2} bounds W(zero + r nu) / r^q from below for r <= 1
    coef = cmin * m ** (-q / 2.0) if cmin > 0 else 1.0
    kw.setdefault("exponent", q)
    kw.setdefault("lower_coef", coef)
    return Potential("anisotropic", zero, coeffs=coeffs, powers=powers, **kw)


def product_perturbed(zero, **kw) -> Potential:
    return Potential("product-perturbed", zero, exponent=2.0, lower_coef=1.0, **kw)


# per family, the keys from_config reads from a config block besides
# ``family`` and their types, as in boundary.CONFIG_KEYS (None: a point, a
# list of numbers or one number for m = 1)
_SHARED_KEYS = {"zero": None, "lower_radius": float, "monot_radius": float}
CONFIG_KEYS = {
    "quadratic": _SHARED_KEYS,
    "power": {**_SHARED_KEYS, "q": float},
    "anisotropic": {**_SHARED_KEYS, "coeffs": None, "powers": None},
    "product-perturbed": _SHARED_KEYS,
}


def from_config(block: dict) -> Potential:
    """Build a potential from a config mapping (family tag + parameters);
    it reads only the keys ``CONFIG_KEYS`` lists for the family."""
    fam = block.get("family")
    zero = block.get("zero", 0.0)
    extra = {k: block[k] for k in ("lower_radius", "monot_radius") if k in block}
    if fam == "quadratic":
        return quadratic(zero, **extra)
    if fam == "power":
        return power(zero, block.get("q", 2), **extra)
    if fam == "anisotropic":
        return anisotropic(zero, block["coeffs"], block["powers"], **extra)
    if fam == "product-perturbed":
        return product_perturbed(zero, **extra)
    raise ValueError(f"unknown potential family {fam!r}")


# ---------------------------------------------------------------------------
# assumption verification


@dataclass
class AssumptionReport:
    """Sampled verification of the standing assumptions on a potential.

    Every flag is reproducible from the recorded seed and sample counts.
    """

    family: str
    positive_ok: bool
    positive_worst: float
    positive_near_zero_ok: bool
    lower_bound_ok: bool
    lower_bound_margin: float
    lower_bound_worst_r: float
    lower_bound_worst_dir: list
    radial_monotone_ok: bool
    monotone_margin: float
    hessian_pd_ok: bool
    hessian_min: float
    samples: int
    seed: int
    box_halfwidth: float

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def _directions(m: int, samples: int, rng) -> np.ndarray:
    """Seeded unit directions including the +-axis ones; shape (k, m)."""
    axes = np.concatenate([np.eye(m), -np.eye(m)], axis=0)
    g = rng.standard_normal((samples, m))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return np.concatenate([axes, g], axis=0)


def verify_assumptions(pot: Potential, samples: int = 256,
                       seed: int = 0) -> AssumptionReport:
    """Sample the positivity, radial lower bound, radial monotonicity and
    Hessian definiteness assumptions; failures are reported, never raised.

    Positivity is only checkable on a bounded box around ``zero``; it is
    sampled on the box of half-width 2, which the report records.
    """
    box_halfwidth = 2.0
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    m = pot.m
    nus = _directions(m, samples, rng)

    # positivity on the sampled box, excluding the zero itself
    pts = pot.zero + rng.uniform(-box_halfwidth, box_halfwidth, size=(64 * samples, m))
    d = np.linalg.norm(pts - pot.zero, axis=1)
    pts = pts[d > 1e-9]
    wvals = pot.value_field(pts.T)
    positive_worst = float(wvals.min())
    positive_ok = bool(positive_worst > 0.0)

    # positivity again on |u - zero| < 2 * monot_radius (max-principle hypothesis)
    r2 = 2.0 * pot.monot_radius
    radii_near = rng.uniform(1e-6, r2, size=nus.shape[0])
    near = pot.zero + radii_near[:, None] * nus
    positive_near_zero_ok = bool(pot.value_field(near.T).min() > 0.0)

    # lower bound W(zero + r nu) >= lower_coef * r^exponent on (0, lower_radius)
    rs = np.geomspace(1e-3 * pot.lower_radius, pot.lower_radius, samples)
    margin = np.inf
    worst = (0.0, nus[0])
    for nu in nus:
        w = pot.value_field((pot.zero[:, None] + rs[None, :] * nu[:, None]))
        gap = w - pot.lower_coef * rs ** pot.exponent
        i = int(np.argmin(gap))
        if gap[i] < margin:
            margin = float(gap[i])
            worst = (float(rs[i]), nu)
    lower_bound_ok = bool(margin >= -1e-12)

    # strict radial monotonicity on (0, monot_radius]
    rs_m = np.linspace(0.0, pot.monot_radius, samples + 1)[1:]
    mono_margin = np.inf
    for nu in nus:
        w = pot.value_field((pot.zero[:, None] + rs_m[None, :] * nu[:, None]))
        mono_margin = min(mono_margin, float(np.diff(w).min()))
    radial_monotone_ok = bool(mono_margin > -1e-12)

    # Hessian definiteness at the zero, sampled over directions
    h0 = pot.hessian(pot.zero)
    rq = np.einsum("km,mn,kn->k", nus, h0, nus)
    hessian_min = float(rq.min())
    hessian_pd_ok = bool(hessian_min > 0.0)

    return AssumptionReport(
        family=pot.family,
        positive_ok=positive_ok,
        positive_worst=positive_worst,
        positive_near_zero_ok=positive_near_zero_ok,
        lower_bound_ok=lower_bound_ok,
        lower_bound_margin=margin,
        lower_bound_worst_r=worst[0],
        lower_bound_worst_dir=[float(x) for x in worst[1]],
        radial_monotone_ok=radial_monotone_ok,
        monotone_margin=mono_margin,
        hessian_pd_ok=hessian_pd_ok,
        hessian_min=hessian_min,
        samples=samples,
        seed=seed,
        box_halfwidth=box_halfwidth,
    )
