"""Bivariate log-symmetric distribution: densities, radial laws, sampling,
conditionals, moments, and parameter transforms.

A pair T = (T1, T2) follows the law when (log T1, log T2) is elliptically
distributed with density generator g, medians (eta1, eta2), log-scales
(sigma1, sigma2) and correlation-like parameter rho.  Joint density:

    f(t1, t2) = g(xq) / (t1 t2 sigma1 sigma2 sqrt(1 - rho^2) * (Z / pi) * pi)

with xq = (zt1^2 - 2 rho zt1 zt2 + zt2^2) / (1 - rho^2),
zti = (log ti - log etai) / sigmai, and Z the family partition constant.

The squared Mahalanobis radius xq follows the radial law with density
pi g(x) / Z. Every family has a closed survival function for it
(``generators.radial_sf``) and an inverse (``generators.radial_isf``),
which carry the radial CDF and quantile, the sampler and the marginal CDF.
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

_TRUNC_TAIL = 1e-10  # radial tail mass cut off by the joint_cdf quadrature box


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


def _checked_quad(f, a, b, epsabs=1e-11, epsrel=1e-10, **kw):
    val, err = integrate.quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=200, **kw)
    budget = max(1e-9, 1e-7 * abs(val))
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

    Deterministic given seed: exactly two uniforms are consumed per draw
    (radial probability, angle), independent of any worker configuration.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise DomainError(f"sample size must be a positive integer, got {n}")
    rng = np.random.default_rng(seed)
    u = rng.random((int(n), 2))
    d2 = gen.radial_isf(spec, 1.0 - u[:, 0])  # tail probability in (0, 1]
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
    R = math.sqrt(gen.radial_isf(spec, _TRUNC_TAIL))
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

    f(z) = 2 int_0^inf g(z^2 + v^2) dv / Z.
    """
    zv = float(zv)
    zq = zv * zv
    z = _z_const(spec)
    return 2.0 / z * _checked_quad(lambda v: gen.g(spec, zq + v * v), 0.0, np.inf)


def marginal_cdf_z(spec: GeneratorSpec, zv: float) -> float:
    """CDF of the standardized component; symmetric about 0.

    P(0 < Z1 <= z) = (1/pi) int_0^inf z F(z^2 + w^2) / (z^2 + w^2) dw, with
    F = 1 - S the radial CDF.
    """
    zv = float(zv)
    if zv == 0.0:
        return 0.5
    az = abs(zv)
    zq = az * az
    if not math.isfinite(zq):
        raise DomainError(f"marginal_cdf_z: z^2 is beyond the double range at z={zv}")

    def integrand(w):
        xq = zq + w * w
        return az * (1.0 - gen.radial_sf(spec, xq)) / xq

    half = _checked_quad(integrand, 0.0, np.inf, epsabs=1e-14, epsrel=1e-12) / math.pi
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
