"""Bivariate log-symmetric distribution: densities, radial laws, sampling,
conditionals, moments, and parameter transforms.

A pair T = (T1, T2) follows the law when (log T1, log T2) is elliptically
distributed with density generator g, medians (eta1, eta2), log-scales
(sigma1, sigma2) and correlation-like parameter rho.  Joint density:

    f(t1, t2) = g(xq) / (t1 t2 sigma1 sigma2 sqrt(1 - rho^2) * (Z / pi) * pi)

with xq = (zt1^2 - 2 rho zt1 zt2 + zt2^2) / (1 - rho^2),
zti = (log ti - log etai) / sigmai, and Z the family partition constant.

The squared Mahalanobis radius xq follows the radial law with density
pi g(x) / Z; closed forms exist for lognormal (chi-square with 2 df) and
logt (2 * F(2, nu)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import integrate, optimize

from . import generators as gen
from . import specfun
from .errors import (
    DomainError,
    IntegrationError,
    RootFindingError,
    ZeroProbabilityError,
)
from .generators import GeneratorId, GeneratorSpec

__all__ = [
    "BLSParams",
    "CorrelationResult",
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

_TRUNC_TAIL = 1e-10  # truncation mass for 2-D quadrature and sampling tables


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


class CorrelationResult(NamedTuple):
    value: float
    mc_se: float | None  # None for the closed-form path


def _as_positive_array(t, name: str) -> tuple[np.ndarray, bool]:
    ta = np.asarray(t, dtype=float)
    scalar = ta.ndim == 0
    ta = np.atleast_1d(ta)
    if np.any(~(ta > 0.0)):
        raise DomainError(f"{name} must be strictly positive")
    return ta, scalar


def _checked_quad(f, a, b, epsabs=1e-11, epsrel=1e-10, tol=None, **kw):
    val, err = integrate.quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=200, **kw)
    budget = tol if tol is not None else max(1e-9, 1e-7 * abs(val))
    if not np.isfinite(val) or err > budget:
        raise IntegrationError(
            f"quadrature failed on [{a}, {b}]: value {val}, error estimate {err}"
        )
    return val


# ---------------------------------------------------------------------------
# standardization and joint density


def standardize(theta: BLSParams, t1, t2):
    """Map observations to standardized log scale: zti = (log ti - log etai)/sigmai."""
    t1a, s1 = _as_positive_array(t1, "t1")
    t2a, s2 = _as_positive_array(t2, "t2")
    zt1 = (np.log(t1a) - math.log(theta.eta1)) / theta.sigma1
    zt2 = (np.log(t2a) - math.log(theta.eta2)) / theta.sigma2
    if s1 and s2:
        return float(zt1[0]), float(zt2[0])
    return zt1, zt2


def _quad_form(zt1, zt2, rho):
    # (zt1^2 - 2 rho zt1 zt2 + zt2^2)/(1-rho^2) as a sum of squares, so the
    # result stays >= 0 under roundoff
    w = (zt1 - rho * zt2) / math.sqrt(1.0 - rho * rho)
    return w * w + zt2 * zt2


def mahalanobis_sq(theta: BLSParams, t1, t2):
    """Squared Mahalanobis radius of (t1, t2) on the standardized log scale."""
    zt1, zt2 = standardize(theta, t1, t2)
    return _quad_form(zt1, zt2, theta.rho)


def joint_log_pdf(theta: BLSParams, spec: GeneratorSpec, t1, t2):
    """log of the joint density, computed without forming the density itself."""
    t1a, s1 = _as_positive_array(t1, "t1")
    t2a, s2 = _as_positive_array(t2, "t2")
    zt1 = (np.log(t1a) - math.log(theta.eta1)) / theta.sigma1
    zt2 = (np.log(t2a) - math.log(theta.eta2)) / theta.sigma2
    xq = _quad_form(zt1, zt2, theta.rho)
    const = (
        -math.log(gen.partition_closed(spec))
        - math.log(theta.sigma1)
        - math.log(theta.sigma2)
        - 0.5 * (math.log1p(-theta.rho) + math.log1p(theta.rho))
    )
    out = gen.log_g(spec, xq) + const - np.log(t1a) - np.log(t2a)
    return float(out[0]) if (s1 and s2) else out


def joint_pdf(theta: BLSParams, spec: GeneratorSpec, t1, t2):
    """Joint density f(t1, t2)."""
    out = joint_log_pdf(theta, spec, t1, t2)
    return math.exp(out) if np.isscalar(out) else np.exp(out)


# ---------------------------------------------------------------------------
# radial (Mahalanobis) law


def _z_const(spec: GeneratorSpec) -> float:
    return gen.partition_closed(spec)


def mahalanobis_pdf(spec: GeneratorSpec, x):
    """Density pi g(x) / Z of the squared Mahalanobis radius, x >= 0."""
    return math.pi * gen.g(spec, x) / _z_const(spec)


def mahalanobis_cdf(spec: GeneratorSpec, x) -> float:
    """CDF of the squared Mahalanobis radius at scalar x."""
    x = float(x)
    if x < 0.0:
        raise DomainError(f"mahalanobis_cdf requires x >= 0, got {x}")
    if x == 0.0:
        return 0.0
    gid = spec.id
    if gid is GeneratorId.LOGNORMAL:
        return -math.expm1(-0.5 * x)  # chi-square, 2 df
    if gid is GeneratorId.STUDENT_T:
        nu = spec.params.nu  # 2 F(2, nu)
        return -math.expm1(0.5 * nu * (math.log(nu) - math.log(x + nu)))
    z = _z_const(spec)
    # head mass on geometric panels: one adaptive quad per panel so no single
    # call spans a huge interval (power-tailed g would defeat the subdivision)
    head = 0.0
    lo = 0.0
    hi_edge = min(1.0, x)
    while True:
        head += _checked_quad(lambda u: gen.g(spec, u), lo, hi_edge, tol=1e-10)
        if hi_edge >= x:
            break
        lo, hi_edge = hi_edge, min(2.0 * hi_edge, x)
    head *= math.pi / z
    if head <= 0.7:
        return min(head, 1.0)
    # upper tail via u = x/s, s in (0, 1]: well-behaved for power-law tails
    # once x sits at or beyond the bulk of the law
    tail = (
        math.pi
        / z
        * x
        * _checked_quad(lambda s: gen.g(spec, x / s) / (s * s), 0.0, 1.0, tol=1e-10)
    )
    return max(0.0, 1.0 - tail)


def mahalanobis_quantile(spec: GeneratorSpec, p: float) -> float:
    """Quantile of the squared Mahalanobis radius, p in [0, 1)."""
    p = float(p)
    if not 0.0 <= p < 1.0:
        raise DomainError(f"mahalanobis_quantile requires p in [0, 1), got {p}")
    if p == 0.0:
        return 0.0
    gid = spec.id
    if gid is GeneratorId.LOGNORMAL:
        return -2.0 * math.log1p(-p)
    if gid is GeneratorId.STUDENT_T:
        nu = spec.params.nu
        return nu * math.expm1(-2.0 / nu * math.log1p(-p))
    hi = 1.0
    for _ in range(400):
        if mahalanobis_cdf(spec, hi) >= p:
            break
        hi *= 2.0
    else:  # pragma: no cover
        raise RootFindingError(f"failed to bracket radial quantile at p={p}")
    try:
        root = optimize.brentq(
            lambda u: mahalanobis_cdf(spec, u) - p, 0.0, hi, xtol=1e-13, rtol=1e-15
        )
    except Exception as e:  # pragma: no cover
        raise RootFindingError(f"radial quantile refinement failed at p={p}: {e}")
    if abs(mahalanobis_cdf(spec, root) - p) > 1e-9:
        raise RootFindingError(
            f"radial quantile did not reach 1e-9 probability accuracy at p={p}"
        )
    return root


# ---------------------------------------------------------------------------
# sampling: polar representation Z = (R cos A, R sin A) with R^2 from the
# radial law and A uniform on [0, 2 pi)

# 16-point Gauss-Legendre rule on [-1, 1]
_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)

_RADIAL_TABLES: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}


def _radial_table(spec: GeneratorSpec) -> tuple[np.ndarray, np.ndarray]:
    """Monotone (nodes, cdf) interpolation table for the generic radial law.

    2048 geometrically spaced nodes covering p in [1e-7, 1 - 1e-10]; segment
    integrals by fixed 16-point Gauss-Legendre.  Cached per (family, params);
    a benign rebuild race only wastes work.
    """
    key = spec.key()
    tab = _RADIAL_TABLES.get(key)
    if tab is not None:
        return tab
    z_lo = mahalanobis_quantile(spec, 1e-7)
    z_hi = mahalanobis_quantile(spec, 1.0 - _TRUNC_TAIL)
    nodes = np.geomspace(z_lo, z_hi, 2048)
    a, b = nodes[:-1], nodes[1:]
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    pts = mid[:, None] + half[:, None] * _GL_X[None, :]
    vals = math.pi / _z_const(spec) * gen.g(spec, pts.ravel()).reshape(pts.shape)
    seg = half * (vals @ _GL_W)
    cdf = np.concatenate(([1e-7], 1e-7 + np.cumsum(seg)))
    tab = (nodes, cdf)
    _RADIAL_TABLES[key] = tab
    return tab


def _radial_ppf_generic(spec: GeneratorSpec, p: np.ndarray) -> np.ndarray:
    nodes, cdf = _radial_table(spec)
    out = np.empty_like(p)
    inside = (p >= cdf[0]) & (p <= cdf[-1])
    for i in np.nonzero(~inside)[0]:  # rare tail draws: exact scalar inversion
        out[i] = mahalanobis_quantile(spec, p[i])
    if inside.any():
        pi_ = p[inside]
        idx = np.clip(np.searchsorted(cdf, pi_), 1, len(cdf) - 1)
        a, b = nodes[idx - 1], nodes[idx]
        ca, cb = cdf[idx - 1], cdf[idx]
        z = a + (b - a) * (pi_ - ca) / (cb - ca)
        zfac = math.pi / _z_const(spec)
        for _ in range(3):  # Newton refinement against the exact density
            half = 0.5 * (z - a)
            mid = 0.5 * (z + a)
            pts = mid[:, None] + half[:, None] * _GL_X[None, :]
            fvals = zfac * gen.g(spec, np.maximum(pts.ravel(), 0.0)).reshape(pts.shape)
            F = ca + half * (fvals @ _GL_W)
            pdf = zfac * gen.g(spec, z)
            step = np.where(pdf > 0, (F - pi_) / np.where(pdf > 0, pdf, 1.0), 0.0)
            z = np.clip(z - step, a, b)
        out[inside] = z
    return out


def _radial_ppf(spec: GeneratorSpec, p: np.ndarray) -> np.ndarray:
    gid = spec.id
    if gid is GeneratorId.LOGNORMAL:
        return -2.0 * np.log1p(-p)
    if gid is GeneratorId.STUDENT_T:
        nu = spec.params.nu
        return nu * np.expm1(-2.0 / nu * np.log1p(-p))
    return _radial_ppf_generic(spec, p)


def sample(theta: BLSParams, spec: GeneratorSpec, n: int, seed) -> np.ndarray:
    """Draw n pairs; returns an (n, 2) array of strictly positive values.

    Deterministic given seed: exactly two uniforms are consumed per draw
    (radial probability, angle), independent of any worker configuration.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise DomainError(f"sample size must be a positive integer, got {n}")
    rng = np.random.default_rng(seed)
    u = rng.random((int(n), 2))
    d2 = _radial_ppf(spec, u[:, 0])
    rad = np.sqrt(d2)
    ang = 2.0 * math.pi * u[:, 1]
    z1 = rad * np.cos(ang)
    z2 = rad * np.sin(ang)
    w2 = theta.rho * z1 + math.sqrt(1.0 - theta.rho**2) * z2
    t1 = theta.eta1 * np.exp(theta.sigma1 * z1)
    t2 = theta.eta2 * np.exp(theta.sigma2 * w2)
    return np.column_stack([t1, t2])


# ---------------------------------------------------------------------------
# joint CDF


def joint_cdf(theta: BLSParams, spec: GeneratorSpec, t1: float, t2: float) -> float:
    """P(T1 <= t1, T2 <= t2) by truncated 2-D quadrature.

    Standardized coordinates (z1, z2) with z2 the spherical component; the
    integration box is truncated at the radius R with
    P(radius^2 > R^2) = 1e-10, so the truncation error is below the 1e-6
    absolute tolerance of the quadrature.
    """
    if not (t1 > 0.0 and t2 > 0.0):
        raise DomainError("joint_cdf requires t1 > 0 and t2 > 0")
    a, b = standardize(theta, t1, t2)
    R = math.sqrt(mahalanobis_quantile(spec, 1.0 - _TRUNC_TAIL))
    if a <= -R or b <= -R:
        return 0.0
    rho = theta.rho
    c = math.sqrt(1.0 - rho * rho)
    z = _z_const(spec)

    # both passes get interior break points near the elliptical core so the
    # adaptive rule cannot overlook a narrow bump inside a huge truncated box
    def _pts(lo, hi):
        return [p for p in (-10.0, 0.0, 10.0) if lo < p < hi]

    def inner(z1):
        hi = float(np.clip((b - rho * z1) / c, -R, R))
        if hi <= -R:
            return 0.0
        val, _ = integrate.quad(
            lambda z2: gen.g(spec, z1 * z1 + z2 * z2) / z,
            -R, hi, points=_pts(-R, hi), limit=200, epsabs=1e-11, epsrel=1e-9,
        )
        return val

    hi1 = min(a, R)
    val, err = integrate.quad(
        inner, -R, hi1, points=_pts(-R, hi1), limit=200, epsabs=1e-8, epsrel=1e-7
    )
    if not np.isfinite(val) or err > 1e-6:
        raise IntegrationError(
            f"joint_cdf quadrature failed: value {val}, error estimate {err}"
        )
    return float(min(max(val, 0.0), 1.0))


# ---------------------------------------------------------------------------
# marginal law of the standardized component


def marginal_pdf_z(spec: GeneratorSpec, zv: float) -> float:
    """Density of one standardized log-scale component Z1 at zv.

    f(z) = int_{|z|}^inf 2 g(w^2) / sqrt(1 - z^2/w^2) dw / Z, evaluated through
    the substitution w = |z|/cos(phi) which removes the endpoint singularity;
    at z = 0 it reduces to 2 int_0^inf g(v^2) dv / Z.
    """
    zv = float(zv)
    z = _z_const(spec)
    if zv == 0.0:
        return 2.0 / z * _checked_quad(lambda v: gen.g(spec, v * v), 0.0, np.inf)
    az = abs(zv)

    def integrand(phi):
        cp = math.cos(phi)
        return gen.g(spec, (az / cp) ** 2) / (cp * cp)

    return 2.0 * az / z * _checked_quad(integrand, 0.0, 0.5 * math.pi)


def marginal_cdf_z(spec: GeneratorSpec, zv: float) -> float:
    """CDF of the standardized component; symmetric about 0."""
    zv = float(zv)
    if zv == 0.0:
        return 0.5
    half = _checked_quad(
        lambda w: marginal_pdf_z(spec, w), 0.0, abs(zv), epsabs=1e-10, epsrel=1e-9
    )
    half = min(half, 0.5)
    return 0.5 + half if zv > 0 else 0.5 - half


def marginal_quantile(
    theta: BLSParams, spec: GeneratorSpec, component: int, p: float
) -> float:
    """Marginal quantile of T_component (component is 1 or 2)."""
    if component not in (1, 2):
        raise DomainError(f"component must be 1 or 2, got {component}")
    p = float(p)
    if not 0.0 < p < 1.0:
        raise DomainError(f"marginal_quantile requires p in (0, 1), got {p}")
    eta = theta.eta1 if component == 1 else theta.eta2
    sigma = theta.sigma1 if component == 1 else theta.sigma2
    if p == 0.5:
        return eta
    q = abs(p - 0.5)

    def f(zv):  # P(0 < Z <= zv) - q
        return marginal_cdf_z(spec, zv) - 0.5 - q

    hi = 1.0
    for _ in range(60):
        if f(hi) >= 0.0:
            break
        hi *= 2.0
    else:  # pragma: no cover
        raise RootFindingError(f"failed to bracket marginal quantile at p={p}")
    zq = optimize.brentq(f, 0.0, hi, xtol=1e-11, rtol=1e-15)
    if p < 0.5:
        zq = -zq
    return eta * math.exp(sigma * zq)


# ---------------------------------------------------------------------------
# conditional laws


def conditional_pdf_t2_given_t1(
    theta: BLSParams, spec: GeneratorSpec, t1: float, t2: float
) -> float:
    """Density of T2 given T1 = t1: joint density over the T1 marginal."""
    if not (t1 > 0.0 and t2 > 0.0):
        raise DomainError("conditional density requires t1 > 0 and t2 > 0")
    zt1, _ = standardize(theta, t1, float(t2))
    marg_t1 = marginal_pdf_z(spec, zt1) / (theta.sigma1 * t1)
    if marg_t1 <= 0.0:
        raise ZeroProbabilityError(f"T1 marginal density vanishes at t1={t1}")
    return joint_pdf(theta, spec, float(t1), float(t2)) / marg_t1


def _std_t_pdf(x: float, nu: float) -> float:
    return math.exp(
        specfun.ln_gamma(0.5 * (nu + 1.0))
        - specfun.ln_gamma(0.5 * nu)
        - 0.5 * math.log(nu * math.pi)
        - 0.5 * (nu + 1.0) * math.log1p(x * x / nu)
    )


def _std_normal_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def conditional_pdf_t1_given_t2_in_interval(
    theta: BLSParams,
    spec: GeneratorSpec,
    t1: float,
    interval: tuple[float, float],
) -> float:
    """Density of T1 given T2 in (lo, hi], 0 <= lo < hi <= inf.

    Closed fast paths for lognormal (normal CDF ratio) and logt (Student-t
    CDF ratio with nu + 1 degrees of freedom in the numerator); adaptive
    quadrature otherwise.
    """
    if not t1 > 0.0:
        raise DomainError("conditional density requires t1 > 0")
    lo, hi = float(interval[0]), float(interval[1])
    if not (0.0 <= lo < hi):
        raise DomainError(f"interval must satisfy 0 <= lo < hi, got ({lo}, {hi})")
    rho = theta.rho
    c = math.sqrt(1.0 - rho * rho)
    zt1 = (math.log(t1) - math.log(theta.eta1)) / theta.sigma1

    def btilde(v):
        if v <= 0.0:
            return -math.inf
        if math.isinf(v):
            return math.inf
        return (math.log(v) - math.log(theta.eta2)) / theta.sigma2

    b_lo, b_hi = btilde(lo), btilde(hi)
    w_lo = (b_lo - rho * zt1) / c if np.isfinite(b_lo) else -math.inf
    w_hi = (b_hi - rho * zt1) / c if np.isfinite(b_hi) else math.inf

    gid = spec.id
    if gid is GeneratorId.LOGNORMAL:
        denom = _phi_diff(b_lo, b_hi)
        if denom < 1e-12:
            raise ZeroProbabilityError("conditioning interval has zero probability")
        num = _std_normal_pdf(zt1) * _phi_diff(w_lo, w_hi)
        return num / (t1 * theta.sigma1 * denom)
    if gid is GeneratorId.STUDENT_T:
        nu = spec.params.nu
        denom = _t_cdf_diff(b_lo, b_hi, nu)
        if denom < 1e-12:
            raise ZeroProbabilityError("conditioning interval has zero probability")
        s = math.sqrt((nu + 1.0) / (nu + zt1 * zt1))
        num = _std_t_pdf(zt1, nu) * _t_cdf_diff(s * w_lo, s * w_hi, nu + 1.0)
        return num / (t1 * theta.sigma1 * denom)

    denom = _marginal_prob(spec, b_lo, b_hi)
    if denom < 1e-12:
        raise ZeroProbabilityError("conditioning interval has zero probability")
    z = _z_const(spec)
    zq = zt1 * zt1

    def integrand(w):
        return gen.g(spec, zq + w * w) / z

    lo_w = w_lo if np.isfinite(w_lo) else -np.inf
    hi_w = w_hi if np.isfinite(w_hi) else np.inf
    num = _checked_quad(integrand, lo_w, hi_w, epsabs=1e-12, epsrel=1e-9)
    return num / (t1 * theta.sigma1 * denom)


def _phi_diff(a: float, b: float) -> float:
    return specfun.std_normal_cdf(b) - specfun.std_normal_cdf(a)


def _t_cdf_diff(a: float, b: float, nu: float) -> float:
    return specfun.student_t_cdf(b, nu) - specfun.student_t_cdf(a, nu)


def _marginal_prob(spec: GeneratorSpec, b_lo: float, b_hi: float) -> float:
    lo = marginal_cdf_z(spec, b_lo) if np.isfinite(b_lo) else 0.0
    hi = marginal_cdf_z(spec, b_hi) if np.isfinite(b_hi) else 1.0
    return hi - lo


# ---------------------------------------------------------------------------
# moments, correlation, transforms


def moment(
    theta: BLSParams, spec: GeneratorSpec, component: int, order: float
) -> float | None:
    """E[T_component^order] = eta^order * vartheta(sigma^2 order^2).

    Returns None when the family has no closed-form moment generator
    (all but lognormal).
    """
    if component not in (1, 2):
        raise DomainError(f"component must be 1 or 2, got {component}")
    if not order > 0:
        raise DomainError(f"order must be > 0, got {order}")
    if not spec.has_characteristic_generator:
        return None
    eta = theta.eta1 if component == 1 else theta.eta2
    sigma = theta.sigma1 if component == 1 else theta.sigma2
    vt = gen.characteristic_generator(spec, sigma * sigma * order * order)
    return eta**order * vt


def _second_moment_tail_rate(spec: GeneratorSpec) -> float:
    """Exponential tail rate of the standardized log-scale marginal.

    E[T^2] = E[exp(2 sigma Z)] exists iff 2 max(sigma) is below this rate.
    Power-tailed families return 0.0 (no exponential moment exists).
    """
    gid = spec.id
    if gid in (GeneratorId.STUDENT_T, GeneratorId.PEARSON_VII, GeneratorId.SLASH):
        return 0.0
    if gid is GeneratorId.LAPLACE:
        return math.sqrt(2.0)
    if gid is GeneratorId.HYPERBOLIC:
        return spec.params.nu
    if gid is GeneratorId.POWER_EXP and spec.params.xi == 1.0:
        return 0.5
    return math.inf  # lognormal, loglogistic, logpexp with xi < 1


def correlation(
    theta: BLSParams,
    spec: GeneratorSpec,
    mc_draws: int = 200_000,
    seed: int = 0,
) -> CorrelationResult | None:
    """Pearson correlation of (T1, T2).

    Lognormal uses the closed form; power-tailed families (logt, logpvii,
    logslash) and parameter settings without a finite second moment return
    None; the remaining families are evaluated by Monte Carlo with a batch
    standard error.
    """
    if spec.id is GeneratorId.LOGNORMAL:
        s1, s2, rho = theta.sigma1, theta.sigma2, theta.rho
        num = math.expm1(s1 * s2 * rho)
        den = math.sqrt(math.expm1(s1 * s1) * math.expm1(s2 * s2))
        return CorrelationResult(num / den, None)
    rate = _second_moment_tail_rate(spec)
    if 2.0 * max(theta.sigma1, theta.sigma2) >= rate:
        return None
    draws = sample(theta, spec, mc_draws, seed)
    value = float(np.corrcoef(draws[:, 0], draws[:, 1])[0, 1])
    nb = 10
    cut = (mc_draws // nb) * nb
    batches = draws[:cut].reshape(nb, -1, 2)
    bc = np.array([np.corrcoef(b[:, 0], b[:, 1])[0, 1] for b in batches])
    mc_se = float(np.std(bc, ddof=1) / math.sqrt(nb))
    return CorrelationResult(value, mc_se)


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
