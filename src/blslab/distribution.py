"""Bivariate log-symmetric distribution: densities, radial laws, CDFs,
sampling, conditionals, moments, and parameter transforms.

A pair T = (T1, T2) follows the law when (log T1, log T2) is elliptically
distributed with density generator g, medians (eta1, eta2), log-scales
(sigma1, sigma2) and correlation-like parameter rho.  Joint density:

    f(t1, t2) = g(xq) / (t1 t2 sigma1 sigma2 sqrt(1 - rho^2) * (Z / pi) * pi)

with xq = (zt1^2 - 2 rho zt1 zt2 + zt2^2) / (1 - rho^2),
zti = (log ti - log etai) / sigmai, and Z the family partition constant.

The squared Mahalanobis radius xq follows the radial law with density
pi g(x) / Z. Its closed survival function S (``generators.radial_sf``) and
inverse carry the radial CDF and quantile, ``generators.radial_draw`` the
sampler; the joint and marginal CDFs and the probability of a strip
lo < Z2 <= hi are one angle integral of S over the rays, with no
truncation, and the marginal and conditional densities one line integral of
g on the log-space panels of ``generators._log_integral``. Moments and the
correlation are exact for every family, from the moment generating function
``generators._log_mgf``. The special functions are the ``generators``
kernels' own, each held to its own accuracy contract there.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from . import generators as gen
from . import specfun
from .errors import DomainError, ZeroProbabilityError
from .generators import GeneratorSpec

integrate = specfun.LazyModule("scipy.integrate")  # unused here; bench/spans.py wraps integrate.quad
optimize = specfun.LazyModule("scipy.optimize")

__all__ = [
    "BLSParams",
    "standardize",
    "mahalanobis_sq",
    "joint_pdf",
    "joint_log_pdf",
    "joint_cdf",
    "mahalanobis_pdf",
    "mahalanobis_cdf",
    "mahalanobis_quantile",
    "sample",
    "marginal_pdf_z",
    "marginal_cdf_z",
    "marginal_quantile",
    "conditional_pdf_t2_given_t1",
    "conditional_pdf_t1_given_t2_in_interval",
    "moment",
    "correlation",
    "transform_scale",
    "transform_power",
    "reciprocal_standardized",
]

@dataclass(frozen=True)
class BLSParams:
    """Parameter vector theta = (eta1, eta2, sigma1, sigma2, rho)."""

    eta1: float
    eta2: float
    sigma1: float
    sigma2: float
    rho: float

    def __post_init__(self):
        for name in ("eta1", "eta2", "sigma1", "sigma2"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0.0):
                raise DomainError(f"{name} must be finite and > 0, got {v}")
        if not (np.isfinite(self.rho) and -1.0 < self.rho < 1.0):
            raise DomainError(f"rho must lie in (-1, 1), got {self.rho}")
        for f in fields(self):  # Python floats, also from numpy scalars
            object.__setattr__(self, f.name, float(getattr(self, f.name)))

    @cached_property
    def logs(self) -> tuple[float, float, float, float, float]:
        """(log eta1, log eta2, log sigma1, log sigma2, log sqrt(1 - rho^2)),
        taken once per theta."""
        scales = (self.eta1, self.eta2, self.sigma1, self.sigma2)
        return (*map(math.log, scales), 0.5 * (math.log1p(-self.rho) + math.log1p(self.rho)))

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.eta1, self.eta2, self.sigma1, self.sigma2, self.rho], dtype=float
        )

    @classmethod
    def from_array(cls, a) -> "BLSParams":
        a = np.asarray(a, dtype=float)
        if a.shape != (5,):
            raise DomainError(f"parameter array must have shape (5,), got {a.shape}")
        return cls(*a.tolist())


def _standardized(theta: BLSParams, t1, t2):
    # (log t1, log t2, zt1, zt2): floats for two 0-d inputs, and a z beyond the
    # doubles (sigma ~ 1e-310) is +-inf, quietly. DomainError unless t1, t2 > 0
    t1 = specfun.checked(t1, "t1 must be strictly positive", DomainError, strict=True)
    t2 = specfun.checked(t2, "t2 must be strictly positive", DomainError, strict=True)
    if isinstance(t1, float) and isinstance(t2, float):  # Python floats overflow quietly
        return _z(theta, float(np.log(t1)), float(np.log(t2)))
    with np.errstate(over="ignore"):
        return _z(theta, np.log(t1), np.log(t2))


def _z(theta: BLSParams, log_t1, log_t2):
    return log_t1, log_t2, (log_t1 - theta.logs[0]) / theta.sigma1, (log_t2 - theta.logs[1]) / theta.sigma2


# ---------------------------------------------------------------------------
# standardization and joint density


def standardize(theta: BLSParams, t1, t2):
    """Map observations to standardized log scale: zti = (log ti - log etai)/sigmai.

    Floats for two 0-d inputs, else two arrays; +-inf where zti leaves the
    double range.
    """
    _, _, zt1, zt2 = _standardized(theta, t1, t2)
    if isinstance(zt1, float) and isinstance(zt2, float):
        return zt1, zt2
    return np.atleast_1d(zt1), np.atleast_1d(zt2)


def _quad_form(zt1, zt2, rho):
    # (zt1^2 - 2 rho zt1 zt2 + zt2^2)/(1-rho^2) as a sum of squares, so the
    # result stays >= 0 under roundoff. It is NaN (0 * inf, inf - inf) only
    # where a component is infinite, and the form is +inf there
    if isinstance(zt1, float) and isinstance(zt2, float):
        w = (zt1 - rho * zt2) / math.sqrt(1.0 - rho * rho)
        xq = w * w + zt2 * zt2
        return xq if xq == xq else math.inf
    with np.errstate(invalid="ignore"):
        w = (zt1 - rho * zt2) / math.sqrt(1.0 - rho * rho)
        xq = w * w + zt2 * zt2
    if math.isnan(xq.max(initial=0.0)):  # one pass and no temporary if none is NaN
        xq[np.isnan(xq)] = math.inf
    return xq


def mahalanobis_sq(theta: BLSParams, t1, t2):
    """Squared Mahalanobis radius of (t1, t2) on the standardized log scale;
    +inf where t1 or t2 is +inf."""
    zt1, zt2 = standardize(theta, t1, t2)
    return _quad_form(zt1, zt2, theta.rho)


def joint_log_pdf(theta: BLSParams, spec: GeneratorSpec, t1, t2):
    """log of the joint density, computed without forming the density itself.

    Two 0-d inputs give a float, with the bits of the 1-element array's
    result, otherwise the inputs broadcast to an array. -inf where t1 or t2
    is +inf. DomainError unless t1, t2 > 0 (NaN included).
    """
    log_t1, log_t2, zt1, zt2 = _standardized(theta, t1, t2)
    xq = _quad_form(zt1, zt2, theta.rho)
    _, _, log_s1, log_s2, log_c = theta.logs
    const = -spec.log_z - log_s1 - log_s2 - log_c
    return gen.log_g(spec, xq) + const - log_t1 - log_t2


def joint_pdf(theta: BLSParams, spec: GeneratorSpec, t1, t2):
    """Joint density f(t1, t2); a float for two 0-d inputs, as joint_log_pdf.

    +inf where the density is infinite (the loglaplace centre), 0 where t1
    or t2 is +inf; DomainError where a finite density exceeds the double range.
    """
    log_f = joint_log_pdf(theta, spec, t1, t2)
    # the largest finite log density, in Python floats for a scalar call
    top = log_f if isinstance(log_f, float) else np.max(log_f, where=log_f < np.inf, initial=-np.inf)
    if gen._LOG_X_HI < top < math.inf:
        raise DomainError(f"{spec.label()}: the joint density exceeds the double range")
    out = np.exp(log_f)
    return out if isinstance(out, np.ndarray) else float(out)


# ---------------------------------------------------------------------------
# radial (Mahalanobis) law


def mahalanobis_pdf(spec: GeneratorSpec, x):
    """Density pi g(x) / Z of the squared Mahalanobis radius, x >= 0; a float
    for 0-d x, as generators.g."""
    return math.pi * gen.g(spec, x) / gen.partition_closed(spec)


def mahalanobis_cdf(spec: GeneratorSpec, x) -> float:
    """CDF of the squared Mahalanobis radius at scalar x."""
    x = float(x)
    if not x >= 0.0:
        raise DomainError(f"mahalanobis_cdf requires x >= 0, got {x}")
    return 1.0 - gen.radial_sf(spec, x)


def mahalanobis_quantile(spec: GeneratorSpec, p: float) -> float:
    """Quantile of the squared Mahalanobis radius, p in [0, 1).

    DomainError where the quantile exceeds the double range.
    """
    p = float(p)
    if not 0.0 <= p < 1.0:
        raise DomainError(f"mahalanobis_quantile requires p in [0, 1), got {p}")
    return gen.radial_isf(spec, 1.0 - p)


# ---------------------------------------------------------------------------
# sampling: polar representation Z = (R cos A, R sin A) with R^2 from the
# radial law and A uniform on [0, 2 pi)


def sample(theta: BLSParams, spec: GeneratorSpec, n: int, seed) -> np.ndarray:
    """Draw n pairs; returns an (n, 2) array of strictly positive values.

    Deterministic given seed: it first takes n pairs of uniforms (radial
    tail probability, angle); loghyperbolic, loglaplace, logslash and
    logpexp then take the rest of their radial draws from the same stream
    (see generators.radial_draw). DomainError where a radial draw or a draw
    of T = eta e^(sigma z) leaves the double range (logt(0.1) at sigma = 0.5).
    """
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise DomainError(f"sample size must be a positive integer, got {n}")
    try:
        rng = np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:  # a negative or non-integer seed
        raise DomainError(f"invalid seed {seed!r}: {exc}") from None
    u = rng.random((int(n), 2))
    d2 = gen.radial_draw(spec, 1.0 - u[:, 0], rng)  # tail probability in (0, 1]
    rad = np.sqrt(d2)
    ang = 2.0 * math.pi * u[:, 1]
    z1 = rad * np.cos(ang)
    z2 = rad * np.sin(ang)
    w2 = theta.rho * z1 + math.sqrt(1.0 - theta.rho**2) * z2
    with np.errstate(over="ignore"):  # a draw past the doubles is caught below
        t = np.column_stack([theta.eta1 * np.exp(theta.sigma1 * z1),
                             theta.eta2 * np.exp(theta.sigma2 * w2)])
    if not np.all((0.0 < t) & (t < math.inf)):
        raise DomainError(f"{spec.label()}: a draw of T lies beyond the double range")
    return t


# ---------------------------------------------------------------------------
# joint and marginal CDF: one angle rule over the closed radial law

_TAIL_LEVELS = 0.5 ** np.arange(1, 41)  # radial tail probabilities 2^-1 ... 2^-40


def _tail_radii(spec: GeneratorSpec) -> np.ndarray:
    """The radii sqrt(isf(2^-k)), k = 1 ... 40, of the angle rule's tail
    breaks, as far as they stay below sqrt(1e300)."""
    q = _TAIL_LEVELS[_TAIL_LEVELS > gen.radial_sf(spec, 1e300)]  # finite radii only
    return np.sqrt(gen.radial_isf(spec, q))


def _wedge_prob(spec: GeneratorSpec, radii: np.ndarray, normals, d) -> float:
    """P(n_i . z <= d_i for each unit row n_i of normals), z spherical, with
    radii = _tail_radii(spec).

    The ray at angle phi carries S(r_lo^2) - S(r_hi^2), or 0 if r_hi <= r_lo:
    with s_i = n_i . (cos phi, sin phi), r_hi is the least d_i / s_i over
    s_i > 0 and r_lo the largest of 0 and d_i / s_i over s_i < 0. The panels
    of the 16-point Gauss-Legendre angle rule break at the apex of the wedge
    and its antipode (r_lo or r_hi switches rows), unless the two normals
    are parallel (a strip has no apex); about each angle where s_i = 0, at
    offsets |d_i| 4^k / 64 from where S < 2^-40 (or 2^-50) up to pi, for the
    |s|^nu edge of a power tail; and where d_i / s_i crosses a tail radius
    sqrt(isf(2^-k)), so that a steep radial tail (logpexp as xi -> -1) is
    cut into short panels.
    """
    normals, d = np.asarray(normals, dtype=float), np.asarray(d, dtype=float)
    r_max = radii[-1] if len(radii) else math.inf
    breaks, band = [], 0.0
    for (nx, ny), di in zip(normals, d):
        alpha, ad = math.atan2(ny, nx), abs(float(di))
        off = np.empty(0)
        if 0.0 < ad < math.inf:  # offsets ad * 4^k / 64 from the floor up to pi
            band += 4.0 * math.asin(min(1.0, ad / math.sqrt(gen._X_MAX))) / (2.0 * math.pi)
            k0, k1 = (
                math.ceil((math.log(x) - math.log(ad)) / math.log(4.0)) + 3
                for x in (max(2.0**-50, ad / r_max), math.pi)
            )
            off = np.ldexp(ad, 2 * np.arange(k0, k1) - 6)
            c = np.arccos(di / radii[radii > ad])
            breaks += [*(alpha + c), *(alpha - c)]
        for phi0 in (alpha + 0.5 * math.pi, alpha - 0.5 * math.pi):
            breaks += [phi0, *(phi0 - off), *(phi0 + off)]
    if len(d) == 2 and np.all(np.isfinite(d)) and np.linalg.det(normals) != 0.0:
        apex = np.linalg.solve(normals, d)
        phi = math.atan2(apex[1], apex[0])
        breaks += [phi, phi + math.pi]
    # within asin(|d_i| / sqrt(X_MAX)) of an angle where s_i = 0, (d_i / s_i)^2
    # leaves the doubles and S reads 0 there, losing up to S(X_MAX) of the mass
    if band > 1e-14 and band * gen.radial_sf(spec, gen._X_MAX) > 1e-14:
        raise DomainError(f"{spec.label()}: the angle rule needs radial mass beyond the double range")
    edges = np.unique(np.mod(breaks, 2.0 * math.pi))
    edges = np.append(edges, edges[0] + 2.0 * math.pi)
    half = 0.5 * np.diff(edges)[:, None]
    phi = (edges[:-1, None] + half + half * gen._GL_X).ravel()
    s = normals @ np.array([np.cos(phi), np.sin(phi)])
    with np.errstate(all="ignore"):  # d_i / s_i and its square may be inf
        r = d[:, None] / s
        r_hi = np.where(s > 0.0, r, math.inf).min(axis=0)
        r_lo = np.where(s < 0.0, r, 0.0).max(axis=0, initial=0.0)
        live = r_hi > r_lo
        x = np.stack([r_lo[live], r_hi[live]]) ** 2
    sf = gen.radial_sf(spec, x)
    val = (half * gen._GL_W).ravel()[live] @ (sf[0] - sf[1]) / (2.0 * math.pi)
    return min(max(float(val), 0.0), 1.0)


def joint_cdf(theta: BLSParams, spec: GeneratorSpec, t1: float, t2: float) -> float:
    """P(T1 <= t1, T2 <= t2), as one angle integral over the radial law.

    With (a, b) = standardize(theta, t1, t2) and z spherical, the event is
    the wedge z1 <= a, rho z1 + sqrt(1 - rho^2) z2 <= b. The ray at angle
    phi enters it at radius r_lo and leaves it at r_hi, so with S the closed
    radial survival function

        F(t1, t2) = (1/(2 pi)) int_0^{2 pi} [S(r_lo^2) - S(r_hi^2)]_+ dphi,

    by a fixed Gauss-Legendre rule on panels cut where the integrand is not
    smooth or changes fast. No truncation radius, so every radial tail is
    covered. Absolute error about 1e-14 or less for all eight families;
    DomainError where the radial mass beyond the doubles may exceed that.
    """
    if not (t1 > 0.0 and t2 > 0.0):
        raise DomainError("joint_cdf requires t1 > 0 and t2 > 0")
    a, b = standardize(theta, t1, t2)
    rho = theta.rho
    normals = [[1.0, 0.0], [rho, math.sqrt(1.0 - rho * rho)]]
    return _wedge_prob(spec, _tail_radii(spec), normals, [a, b])


# ---------------------------------------------------------------------------
# marginal law of the standardized component


def _line_mass(spec: GeneratorSpec, z: float, lo: float, hi: float) -> float:
    """int_lo^hi g(z^2 + w^2) dw / Z, within ~1e-13 relative to its own size
    (plus eps |log a| / log(b/a) from the logs of the ends of a narrow [a, b]).

    The marginal density of Z1 at z is the whole line; the conditional
    densities are ratios with a segment of it. One generators._log_integral
    over t = log |w| on each side of w = 0, where loglaplace's g is singular
    at z = 0, run once for equal sides; 0 where the mass underflows.
    DomainError where it lies below the scan, |w| < min(2^-40, e^-40 b) on
    [0, b] (logpvii with theta ~ 1e-50 at z = 0), or beyond 1e149 on an
    unbounded side."""
    zq, what = z * z, f"{spec.label()}: the line mass at z={z}"

    def log_f(t):  # log of g(z^2 + w^2) w / Z at w = e^t
        return gen.log_g(spec, zq + np.exp(2.0 * t)) + t - spec.log_z

    sides = Counter(ab for ab in ((max(lo, 0.0), hi), (max(-hi, 0.0), -lo)) if ab[0] < ab[1])
    return math.fsum(k * math.exp(gen._log_integral(log_f, what, math.log(a) if a > 0.0 else -math.inf, math.log(b)))
                     for (a, b), k in sides.items())


def marginal_pdf_z(spec: GeneratorSpec, zv: float) -> float:
    """Density of one standardized log-scale component Z1 at zv,

        f(z) = int_-inf^inf g(z^2 + w^2) dw / Z,

    within ~1e-13 relative, in the tails as well, and 0 where it underflows.
    DomainError where the mass lies below |w| = 2^-40 or beyond 1e149
    (see _line_mass).
    """
    return _line_mass(spec, float(zv), -math.inf, math.inf)


def marginal_cdf_z(spec: GeneratorSpec, zv: float) -> float:
    """CDF of the standardized component, by the joint_cdf angle rule with
    the single half-plane z1 <= zv: for zv > 0

        P(Z1 <= zv) = 1/2 + (1/(2 pi)) int_{-pi/2}^{pi/2} F(zv^2 / cos^2 phi) dphi

    with F = 1 - S the radial CDF, and P(Z1 <= -zv) = 1 - P(Z1 <= zv). No
    truncation; absolute error about 1e-14 or less. DomainError where zv^2
    is not finite, or where the radial mass beyond the doubles exceeds that
    budget (logt with nu <~ 0.09 at |zv| >~ 2e140).
    """
    zv = float(zv)
    if not math.isfinite(zv * zv):
        raise DomainError(f"marginal_cdf_z: z^2 is beyond the double range at z={zv}")
    return _wedge_prob(spec, _tail_radii(spec), [[1.0, 0.0]], [zv])


def marginal_quantile(
    theta: BLSParams, spec: GeneratorSpec, component: int, p: float
) -> float:
    """Marginal quantile of T_component (component is 1 or 2); DomainError
    where it overflows, or underflows to 0."""
    if component not in (1, 2):
        raise DomainError(f"component must be 1 or 2, got {component}")
    p = float(p)
    if not 0.0 < p < 1.0:
        raise DomainError(f"marginal_quantile requires p in (0, 1), got {p}")
    eta = theta.eta1 if component == 1 else theta.eta2
    sigma = theta.sigma1 if component == 1 else theta.sigma2
    if p == 0.5:
        return eta
    tail, side = min(p, 1.0 - p), -1.0 if p < 0.5 else 1.0  # 1 - p is exact for p > 1/2

    def quantile(zv):  # eta e^(sigma z) at z = side zv, or raise beyond the doubles
        s = side * sigma * zv
        t = eta * math.exp(s) if s <= gen._LOG_X_HI else math.inf
        if not 0.0 < t < math.inf:
            raise DomainError(f"{spec.label()}: quantile at p={p} is beyond the double range")
        return t

    radii = _tail_radii(spec)

    def f(zv):  # P(Z <= -zv) - tail, decreasing in zv; as marginal_cdf_z, zv^2 a double
        if not math.isfinite(zv * zv):
            raise DomainError(f"marginal_quantile: z^2 is beyond the double range at z={-zv}")
        return _wedge_prob(spec, radii, [[1.0, 0.0]], [-zv]) - tail

    hi = 1.0
    while f(hi) > 0.0:
        quantile(hi)  # the root lies beyond hi
        hi *= 2.0
    return quantile(optimize.brentq(f, 0.0, hi, xtol=1e-11, rtol=1e-15))


# ---------------------------------------------------------------------------
# conditional laws


def _exp_density(spec: GeneratorSpec, log_f: float) -> float:
    # e^log_f; DomainError where a finite conditional density exceeds the doubles
    if gen._LOG_X_HI < log_f < math.inf:
        raise DomainError(f"{spec.label()}: the conditional density exceeds the double range")
    return math.exp(log_f)


def conditional_pdf_t2_given_t1(
    theta: BLSParams, spec: GeneratorSpec, t1: float, t2: float
) -> float:
    """Density of T2 given T1 = t1: joint density over the T1 marginal.

    Formed in logs and without the factor 1/(sigma1 t1) that both share, so
    that a subnormal t1 is no 0/0. +inf at the loglaplace centre, as
    joint_pdf; ZeroProbabilityError where the T1 marginal density is 0;
    DomainError where a finite density exceeds the doubles.
    """
    if not (t1 > 0.0 and t2 > 0.0):
        raise DomainError("conditional density requires t1 > 0 and t2 > 0")
    t1, t2 = float(t1), float(t2)
    zt1, _ = standardize(theta, t1, t2)
    marg_z = marginal_pdf_z(spec, zt1)
    if marg_z <= 0.0:
        raise ZeroProbabilityError(f"T1 marginal density vanishes at t1={t1}")
    log_joint = joint_log_pdf(theta, spec, t1, t2) + theta.logs[2] + math.log(t1)
    return _exp_density(spec, log_joint - math.log(marg_z))


def conditional_pdf_t1_given_t2_in_interval(
    theta: BLSParams,
    spec: GeneratorSpec,
    t1: float,
    interval: tuple[float, float],
) -> float:
    """Density of T1 given T2 in (lo, hi], 0 <= lo < hi <= inf.

    With z1 the standardized t1 and w = (z2 - rho z1) / sqrt(1 - rho^2), the
    numerator is the line mass of g over the w-range of the interval at
    z1 (_line_mass, ~1e-13 relative) and the denominator P(lo < T2 <= hi)
    is one angle rule over the strip lo < T2 <= hi, the same route for
    every family. The quotient is formed in logs, so that a subnormal t1 is
    no 0/0. ZeroProbabilityError where that probability is below 1e-12;
    DomainError where the line mass is out of the scan's reach (see
    _line_mass) or the density exceeds the doubles.
    """
    if not t1 > 0.0:
        raise DomainError("conditional density requires t1 > 0")
    lo, hi = float(interval[0]), float(interval[1])
    if not (0.0 <= lo < hi):
        raise DomainError(f"interval must satisfy 0 <= lo < hi, got ({lo}, {hi})")
    rho = theta.rho
    c = math.sqrt(1.0 - rho * rho)
    zt1 = (math.log(t1) - theta.logs[0]) / theta.sigma1

    def btilde(v):
        if v <= 0.0:
            return -math.inf
        if math.isinf(v):
            return math.inf
        return (math.log(v) - theta.logs[1]) / theta.sigma2

    b_lo, b_hi = btilde(lo), btilde(hi)
    # P(b_lo < Z2 <= b_hi) as one strip; the angle rule takes an infinite end as it is
    denom = _wedge_prob(spec, _tail_radii(spec), [[1.0, 0.0], [-1.0, 0.0]], [b_hi, -b_lo])
    if denom < 1e-12:
        raise ZeroProbabilityError("conditioning interval has zero probability")
    w_lo = (b_lo - rho * zt1) / c if np.isfinite(b_lo) else -math.inf
    w_hi = (b_hi - rho * zt1) / c if np.isfinite(b_hi) else math.inf
    mass = _line_mass(spec, zt1, w_lo, w_hi)
    if mass == 0.0:
        return 0.0
    return _exp_density(spec, math.log(mass / denom) - theta.logs[2] - math.log(t1))


# ---------------------------------------------------------------------------
# moments, correlation, transforms


def moment(
    theta: BLSParams, spec: GeneratorSpec, component: int, order: float
) -> float | None:
    """E[T_component^order] = eta^order * vartheta(sigma^2 order^2), exact
    for every family (generators._log_mgf).

    None where it is infinite: for the power tails (logt, logpvii, logslash),
    and where sigma * order reaches the family's tail rate. The product is
    formed in logs, so a factor outside the double range is fine where the
    moment is not; DomainError where the moment itself exceeds it.
    """
    if component not in (1, 2):
        raise DomainError(f"component must be 1 or 2, got {component}")
    if not 0.0 < order < math.inf:
        raise DomainError(f"order must be finite and > 0, got {order}")
    eta = theta.eta1 if component == 1 else theta.eta2
    sigma = theta.sigma1 if component == 1 else theta.sigma2
    lv = gen._log_mgf(spec, max(sigma * order, math.ulp(0.0)))  # > 0 where the product underflows
    if lv is None:
        return None
    log_m = order * math.log(eta) + lv
    if not log_m <= gen._LOG_X_HI:
        raise DomainError(f"E[T{component}^{order:g}] leaves the double range")
    return math.exp(log_m)


def correlation(theta: BLSParams, spec: GeneratorSpec) -> float | None:
    """Pearson correlation of (T1, T2), exact for every family.

    With L(s) = log E[e^(s Z1)] (generators._log_mgf), E[T_i^k] = eta_i^k
    e^L(k sigma_i) and E[T1 T2] = eta1 eta2 e^L(s12), as log(T1 T2 / (eta1
    eta2)) has the law of s12 Z1, s12^2 = sigma1^2 + 2 rho sigma1 sigma2 +
    sigma2^2. So with c = L(s12) - L(sigma1) - L(sigma2) and b_i = L(2
    sigma_i) - 2 L(sigma_i) it is expm1(c) / sqrt(expm1(b1) expm1(b2)),
    formed in logs so that nothing overflows. None where a second moment is
    infinite (the power tails, or 2 max(sigma_i) at the tail rate);
    DomainError where a b_i is not a normal double (sigma_i^2 underflows).
    """
    s1, s2 = theta.sigma1, theta.sigma2
    s12 = math.hypot(s1 - s2, math.sqrt(2.0 * (1.0 + theta.rho)) * math.sqrt(s1) * math.sqrt(s2))
    lm = gen._log_mgf(spec, np.array([s1, s2, 2.0 * s1, 2.0 * s2, s12]))
    if lm is None:
        return None
    x = np.r_[lm[4] - lm[0] - lm[1], lm[2:4] - 2.0 * lm[:2]]  # c, b1, b2
    if not np.all((gen._TINY <= x[1:]) & (x[1:] < math.inf)):
        raise DomainError(f"{spec.label()}: a variance of T leaves the doubles at sigma ({s1:g}, {s2:g})")
    with np.errstate(divide="ignore"):  # log |expm1(x)|, -inf at c = 0
        lx = np.maximum(x, 0.0) + np.log(-np.expm1(-np.abs(x)))
    return math.copysign(min(math.exp(lx[0] - 0.5 * (lx[1] + lx[2])), 1.0), x[0])


def transform_scale(theta: BLSParams, c1: float, c2: float) -> BLSParams:
    """Parameters of (c1 T1, c2 T2) for c1, c2 > 0."""
    if not (c1 > 0.0 and c2 > 0.0):
        raise DomainError("scale constants must be > 0")
    return BLSParams(
        c1 * theta.eta1, c2 * theta.eta2, theta.sigma1, theta.sigma2, theta.rho
    )


def transform_power(theta: BLSParams, c1: float, c2: float) -> BLSParams:
    """Parameters of (T1^c1, T2^c2) for nonzero c1, c2.

    On the log scale the map is linear: eta_i -> eta_i^c_i,
    sigma_i -> |c_i| sigma_i, and rho flips sign when c1 c2 < 0.
    """
    if c1 == 0.0 or c2 == 0.0:
        raise DomainError("power constants must be nonzero")
    return BLSParams(
        theta.eta1**c1,
        theta.eta2**c2,
        abs(c1) * theta.sigma1,
        abs(c2) * theta.sigma2,
        math.copysign(1.0, c1 * c2) * theta.rho,
    )


def reciprocal_standardized(theta: BLSParams) -> BLSParams:
    """Parameters of (eta1/T1, eta2/T2): the standardized reciprocal law."""
    return BLSParams(1.0, 1.0, theta.sigma1, theta.sigma2, theta.rho)
