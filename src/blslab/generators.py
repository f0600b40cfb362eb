"""Density-generator registry for the bivariate log-symmetric class.

Each family is a nonnegative density generator g(x) on [0, inf) together with
its normalizing partition constant Z = pi * int_0^inf g(u) du, its score ratio
r(x) = g'(x)/g(x), the survival function of its radial law pi g(x) / Z and
that function's inverse, and optional extra parameters.  The eight families:

    lognormal             g(x) = exp(-x/2)
    logt(nu)              g(x) = (1 + x/nu)^(-(nu+2)/2),            nu > 0
    logpvii(xi, theta)    g(x) = (1 + x/theta)^(-xi),               xi > 1, theta > 0
    loghyperbolic(nu)     g(x) = exp(-nu sqrt(1+x)),                nu > 0
    loglaplace            g(x) = K0(sqrt(2x))
    logslash(nu)          g(x) = x^(-(nu+1)/2) gamma((nu+1)/2, x/2), nu > 1
    logpexp(xi)           g(x) = exp(-x^(1/(1+xi)) / 2),            -1 < xi <= 1
    loglogistic           g(x) = exp(-x) / (1 + exp(-x))^2

The enum values double as the CLI family names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy import integrate, special

from . import specfun
from .errors import DomainError, IntegrationError, RootFindingError

__all__ = [
    "GeneratorId",
    "GeneratorParams",
    "GeneratorSpec",
    "make_generator",
    "g",
    "log_g",
    "r",
    "partition_closed",
    "radial_sf",
    "radial_isf",
    "partition_numeric",
    "characteristic_generator",
    "FAMILY_NAMES",
]

_SLASH_SERIES_X = 1e-5  # below this, slash g and r switch to their series forms
_SQRT2 = math.sqrt(2.0)


class GeneratorId(Enum):
    LOGNORMAL = "lognormal"
    STUDENT_T = "logt"
    PEARSON_VII = "logpvii"
    HYPERBOLIC = "loghyperbolic"
    LAPLACE = "loglaplace"
    SLASH = "logslash"
    POWER_EXP = "logpexp"
    LOGISTIC = "loglogistic"


FAMILY_NAMES = {gid.value: gid for gid in GeneratorId}


@dataclass(frozen=True)
class GeneratorParams:
    """Extra parameters; only the fields a family uses may be set."""

    nu: float | None = None
    xi: float | None = None
    theta: float | None = None


# which extra parameters each family takes, and their admissible ranges
_PARAM_RULES = {
    GeneratorId.LOGNORMAL: (),
    GeneratorId.STUDENT_T: ("nu",),
    GeneratorId.PEARSON_VII: ("xi", "theta"),
    GeneratorId.HYPERBOLIC: ("nu",),
    GeneratorId.LAPLACE: (),
    GeneratorId.SLASH: ("nu",),
    GeneratorId.POWER_EXP: ("xi",),
    GeneratorId.LOGISTIC: (),
}


def _validate_params(gid: GeneratorId, p: GeneratorParams) -> None:
    used = _PARAM_RULES[gid]
    for name in ("nu", "xi", "theta"):
        val = getattr(p, name)
        if name not in used and val is not None:
            raise DomainError(f"{gid.value} takes no parameter {name!r}")
        if name in used and val is None:
            raise DomainError(f"{gid.value} requires parameter {name!r}")
    if gid is GeneratorId.STUDENT_T and not p.nu > 0:
        raise DomainError(f"logt requires nu > 0, got {p.nu}")
    if gid is GeneratorId.PEARSON_VII:
        if not p.xi > 1:
            raise DomainError(f"logpvii requires xi > 1, got {p.xi}")
        if not p.theta > 0:
            raise DomainError(f"logpvii requires theta > 0, got {p.theta}")
    if gid is GeneratorId.HYPERBOLIC and not p.nu > 0:
        raise DomainError(f"loghyperbolic requires nu > 0, got {p.nu}")
    if gid is GeneratorId.SLASH and not p.nu > 1:
        raise DomainError(f"logslash requires nu > 1, got {p.nu}")
    if gid is GeneratorId.POWER_EXP and not (-1.0 < p.xi <= 1.0):
        raise DomainError(f"logpexp requires -1 < xi <= 1, got {p.xi}")


@dataclass(frozen=True)
class GeneratorSpec:
    """A family together with fixed extra parameters."""

    id: GeneratorId
    params: GeneratorParams = field(default_factory=GeneratorParams)

    def __post_init__(self):
        _validate_params(self.id, self.params)

    @property
    def has_characteristic_generator(self) -> bool:
        # closed-form moment generator vartheta(x) is only available here
        return self.id is GeneratorId.LOGNORMAL

    def key(self) -> tuple:
        return (self.id.value, self.params.nu, self.params.xi, self.params.theta)

    def label(self) -> str:
        used = _PARAM_RULES[self.id]
        if not used:
            return self.id.value
        inner = ",".join(f"{n}={getattr(self.params, n):g}" for n in used)
        return f"{self.id.value}({inner})"


def make_generator(
    family: str | GeneratorId,
    nu: float | None = None,
    xi: float | None = None,
    theta: float | None = None,
) -> GeneratorSpec:
    """Build a GeneratorSpec from a family name and extra parameters."""
    if isinstance(family, GeneratorId):
        gid = family
    else:
        try:
            gid = FAMILY_NAMES[family]
        except KeyError:
            raise DomainError(
                f"unknown family {family!r}; expected one of {sorted(FAMILY_NAMES)}"
            ) from None
    return GeneratorSpec(gid, GeneratorParams(nu=nu, xi=xi, theta=theta))


# ---------------------------------------------------------------------------
# generator evaluation


def _as_nonneg_array(x) -> tuple[np.ndarray, bool]:
    xa = np.asarray(x, dtype=float)
    scalar = xa.ndim == 0
    xa = np.atleast_1d(xa)
    if np.any(xa < 0.0):
        raise DomainError("generator argument must be >= 0")
    return xa, scalar


def _ret(out: np.ndarray, scalar: bool):
    return float(out[0]) if scalar else out


def _slash_g_series(s: float, y: np.ndarray) -> np.ndarray:
    # g(x) = 2^-s (1/s - y/(s+1) + y^2/(2(s+2))),  y = x/2 -> 0
    return 2.0**-s * (1.0 / s - y / (s + 1.0) + y * y / (2.0 * (s + 2.0)))


def log_g(spec: GeneratorSpec, x):
    """log g(x); stable for large x (no under/overflow for any family)."""
    xa, scalar = _as_nonneg_array(x)
    gid, p = spec.id, spec.params
    if gid is GeneratorId.LOGNORMAL:
        out = -0.5 * xa
    elif gid is GeneratorId.STUDENT_T:
        out = -0.5 * (p.nu + 2.0) * np.log1p(xa / p.nu)
    elif gid is GeneratorId.PEARSON_VII:
        out = -p.xi * np.log1p(xa / p.theta)
    elif gid is GeneratorId.HYPERBOLIC:
        out = -p.nu * np.sqrt(1.0 + xa)
    elif gid is GeneratorId.LAPLACE:
        # K0 has an integrable log singularity at 0; report log g(0) = +inf
        # so that g == exp(log_g) holds on all of [0, inf).
        out = np.full_like(xa, np.inf)
        pos = xa > 0.0
        u = np.sqrt(2.0 * xa[pos])
        with np.errstate(divide="ignore"):  # k0e(inf) = 0: log g(inf) = -inf
            out[pos] = np.log(specfun.bessel_k0e(u)) - u
    elif gid is GeneratorId.SLASH:
        s = 0.5 * (p.nu + 1.0)
        out = np.empty_like(xa)
        small = xa < _SLASH_SERIES_X
        if small.any():
            out[small] = np.log(_slash_g_series(s, 0.5 * xa[small]))
        if (~small).any():
            xb = xa[~small]
            out[~small] = np.log(
                specfun.lower_incomplete_gamma(s, 0.5 * xb)
            ) - s * np.log(xb)
    elif gid is GeneratorId.POWER_EXP:
        out = -0.5 * xa ** (1.0 / (1.0 + p.xi))
    elif gid is GeneratorId.LOGISTIC:
        out = -xa - 2.0 * np.log1p(np.exp(-xa))
    else:  # pragma: no cover
        raise DomainError(f"unknown generator {gid}")
    return _ret(out, scalar)


def g(spec: GeneratorSpec, x):
    """Density generator g(x) >= 0 evaluated elementwise."""
    gid = spec.id
    if gid is GeneratorId.SLASH:
        xa, scalar = _as_nonneg_array(x)
        s = 0.5 * (spec.params.nu + 1.0)
        out = np.empty_like(xa)
        small = xa < _SLASH_SERIES_X
        if small.any():
            out[small] = _slash_g_series(s, 0.5 * xa[small])
        if (~small).any():
            xb = xa[~small]
            out[~small] = specfun.lower_incomplete_gamma(s, 0.5 * xb) * xb**-s
        return _ret(out, scalar)
    if gid is GeneratorId.LAPLACE:
        xa, scalar = _as_nonneg_array(x)
        out = np.full_like(xa, np.inf)
        pos = xa > 0.0
        out[pos] = specfun.bessel_k0(np.sqrt(2.0 * xa[pos]))
        return _ret(out, scalar)
    val = log_g(spec, x)
    return np.exp(val) if isinstance(val, np.ndarray) else math.exp(val)


def r(spec: GeneratorSpec, x):
    """Score ratio r(x) = g'(x)/g(x).

    Domain error at x = 0 for the families whose ratio is singular there
    (loglaplace, logslash, logpexp with xi > 0).
    """
    xa, scalar = _as_nonneg_array(x)
    gid, p = spec.id, spec.params
    if gid is GeneratorId.LOGNORMAL:
        out = np.full_like(xa, -0.5)
    elif gid is GeneratorId.STUDENT_T:
        out = -(p.nu + 2.0) / (2.0 * (p.nu + xa))
    elif gid is GeneratorId.PEARSON_VII:
        out = -p.xi / (p.theta + xa)
    elif gid is GeneratorId.HYPERBOLIC:
        out = -0.5 * p.nu / np.sqrt(1.0 + xa)
    elif gid is GeneratorId.LAPLACE:
        if np.any(xa == 0.0):
            raise DomainError("loglaplace score ratio is singular at x = 0")
        u = np.sqrt(2.0 * xa)
        # k0e and k1e both vanish at x = inf, where r ~ -1/sqrt(2x) is -0
        out = np.full_like(xa, -0.0)
        fin = u < np.inf
        out[fin] = -specfun.bessel_k1e(u[fin]) / (u[fin] * specfun.bessel_k0e(u[fin]))
    elif gid is GeneratorId.SLASH:
        if np.any(xa == 0.0):
            raise DomainError("logslash score ratio is singular at x = 0 (0/0 form)")
        s = 0.5 * (p.nu + 1.0)
        y = 0.5 * xa
        out = np.empty_like(xa)
        small = xa < _SLASH_SERIES_X
        if small.any():
            ys = y[small]
            # num = e^-y - S(y), S(y) = s gamma(s,y) y^-s, both by series
            num = -ys / (s + 1.0) + ys * ys / (s + 2.0) - ys**3 / (2.0 * (s + 3.0))
            S = 1.0 - s * ys / (s + 1.0) + s * ys * ys / (2.0 * (s + 2.0))
            out[small] = (s / xa[small]) * num / S
        if (~small).any():
            xb, yb = xa[~small], y[~small]
            S = s * specfun.lower_incomplete_gamma(s, yb) * yb**-s
            e = np.exp(-yb)
            # once e^-y underflows (x > 1490) r = -s/x exactly; S follows it
            # to 0 beyond x ~ 1e123 (s = 2.5)
            out[~small] = np.divide((s / xb) * (e - S), S, out=-s / xb, where=e > 0.0)
    elif gid is GeneratorId.POWER_EXP:
        if p.xi > 0.0 and np.any(xa == 0.0):
            raise DomainError("logpexp score ratio is singular at x = 0 for xi > 0")
        out = -(xa ** (-p.xi / (1.0 + p.xi))) / (2.0 * (1.0 + p.xi))
    elif gid is GeneratorId.LOGISTIC:
        out = -np.tanh(0.5 * xa)
    else:  # pragma: no cover
        raise DomainError(f"unknown generator {gid}")
    return _ret(out, scalar)


# ---------------------------------------------------------------------------
# partition constants Z = pi * int_0^inf g(u) du


def partition_closed(spec: GeneratorSpec) -> float:
    """Closed-form partition constant Z for the family."""
    gid, p = spec.id, spec.params
    if gid is GeneratorId.LOGNORMAL:
        return 2.0 * math.pi
    if gid is GeneratorId.STUDENT_T:
        return math.pi * p.nu * math.exp(
            specfun.ln_gamma(0.5 * p.nu) - specfun.ln_gamma(0.5 * (p.nu + 2.0))
        )
    if gid is GeneratorId.PEARSON_VII:
        return math.pi * p.theta * math.exp(
            specfun.ln_gamma(p.xi - 1.0) - specfun.ln_gamma(p.xi)
        )
    if gid is GeneratorId.HYPERBOLIC:
        return 2.0 * math.pi * (p.nu + 1.0) * math.exp(-p.nu) / p.nu**2
    if gid is GeneratorId.LAPLACE:
        return math.pi
    if gid is GeneratorId.SLASH:
        return math.pi * 2.0 ** (0.5 * (3.0 - p.nu)) / (p.nu - 1.0)
    if gid is GeneratorId.POWER_EXP:
        return (
            2.0 ** (p.xi + 1.0)
            * (1.0 + p.xi)
            * math.exp(specfun.ln_gamma(1.0 + p.xi))
            * math.pi
        )
    if gid is GeneratorId.LOGISTIC:
        return 0.5 * math.pi
    raise DomainError(f"unknown generator {gid}")  # pragma: no cover


# ---------------------------------------------------------------------------
# radial law: the squared Mahalanobis radius X has density pi g(x) / Z


def radial_sf(spec: GeneratorSpec, x):
    """Survival function S(x) = P(X > x) of the radial law pi g(x) / Z.

    Closed form for every family, computed as the upper tail itself, so a
    tail probability keeps its relative accuracy (no 1 - F cancellation).
    """
    xa, scalar = _as_nonneg_array(x)
    out = (xa == 0.0).astype(float)  # S(0) = 1, S(inf) = 0
    inner = (xa > 0.0) & (xa < np.inf)
    x, gid, p = xa[inner], spec.id, spec.params
    if gid is GeneratorId.LOGNORMAL:
        sf = np.exp(-0.5 * x)
    elif gid is GeneratorId.STUDENT_T:
        sf = np.exp(-0.5 * p.nu * np.log1p(x / p.nu))
    elif gid is GeneratorId.PEARSON_VII:
        sf = np.exp((1.0 - p.xi) * np.log1p(x / p.theta))
    elif gid is GeneratorId.LAPLACE:
        v = _SQRT2 * np.sqrt(x)  # 2x may overflow
        sf = v * specfun.bessel_k1e(v) * np.exp(-v)
    elif gid in (GeneratorId.HYPERBOLIC, GeneratorId.SLASH):
        sf = np.exp(_radial_log_tails(spec, x)[0])
    elif gid is GeneratorId.POWER_EXP:
        a = 1.0 + p.xi
        w = 0.5 * x ** (1.0 / a)
        # w underflows as xi -> -1; there 1 - S = P(a, w) = w^a / Gamma(a + 1)
        head = 1.0 - x / (2.0**a * math.gamma(1.0 + a))
        sf = np.where(w > 1e-100, special.gammaincc(a, w), head)
    else:  # loglogistic
        sf = 2.0 * special.expit(-x)
    out[inner] = sf
    return _ret(out, scalar)


def radial_isf(spec: GeneratorSpec, q):
    """Inverse survival function: the x with S(x) = q, for q in (0, 1].

    Closed for five families; loghyperbolic, loglaplace and logslash invert
    S by a safeguarded Newton iteration. DomainError where x exceeds the
    double range.
    """
    scalar = np.ndim(q) == 0
    qa = np.atleast_1d(np.asarray(q, dtype=float))
    if not np.all((qa > 0.0) & (qa <= 1.0)):
        raise DomainError("radial_isf requires q in (0, 1]")
    out = np.zeros_like(qa)  # isf(1) = 0
    inner = qa < 1.0
    q, gid, p = qa[inner], spec.id, spec.params
    lq = -np.log(q)
    with np.errstate(over="ignore"):  # an overflow is reported below
        if gid is GeneratorId.LOGNORMAL:
            x = 2.0 * lq
        elif gid is GeneratorId.STUDENT_T:
            x = p.nu * np.expm1(2.0 / p.nu * lq)
        elif gid is GeneratorId.PEARSON_VII:
            x = p.theta * np.expm1(lq / (p.xi - 1.0))
        elif gid is GeneratorId.HYPERBOLIC:
            d = lq / p.nu  # S = e^(-nu d) (1 + nu d / (nu + 1)) with d = sqrt(1+x) - 1
            x = _radial_isf_newton(spec, q, np.log(d * (2.0 + d)))
        elif gid is GeneratorId.LAPLACE:
            v = lq + 0.5 * np.log1p(0.5 * math.pi * lq)  # tail: S ~ sqrt(pi v/2) e^-v
            x = _radial_isf_newton(spec, q, np.log(np.maximum(lq, 0.5 * v * v)))
        elif gid is GeneratorId.SLASH:
            # start from logpvii(xi = theta = s): the same head and tail order
            s = 0.5 * (p.nu + 1.0)
            a = lq / (s - 1.0)
            t0 = math.log(2.0 * s) + a + np.log(-np.expm1(-a))
            x = _radial_isf_newton(spec, q, t0)
        elif gid is GeneratorId.POWER_EXP:
            a = 1.0 + p.xi
            w = special.gammainccinv(a, q)
            # w underflows as xi -> -1; there 1 - q = P(a, w) = w^a / Gamma(a + 1)
            head = 2.0**a * math.gamma(1.0 + a) * (1.0 - q)
            x = np.where(w > 1e-100, (2.0 * w) ** a, head)
        else:  # loglogistic
            x = np.log1p(2.0 * (1.0 - q) / q)
    if np.any(np.isinf(x)):
        raise DomainError(
            f"{spec.label()}: the radial quantile at tail probability "
            f"{np.min(q):g} exceeds the double range"
        )
    out[inner] = x
    return _ret(out, scalar)


# loglaplace head: 1 - v K1(v) = -sum_k c_k (2x)^(k+1) (log(x/2) - d_k), v = sqrt(2x)
_HEAD_K = np.arange(7)
_LAPLACE_HEAD_C = 1.0 / (
    4.0 ** (_HEAD_K + 1) * special.factorial(_HEAD_K) * special.factorial(_HEAD_K + 1)
)
_LAPLACE_HEAD_D = special.digamma(_HEAD_K + 1.0) + special.digamma(_HEAD_K + 2.0)


def _radial_log_tails(spec: GeneratorSpec, x: np.ndarray):
    """log S(x), log F(x) = log(1 - S(x)) and log(x f(x)), f = pi g / Z, for
    loghyperbolic, loglaplace and logslash; F without 1 - S cancellation."""
    if spec.id is GeneratorId.HYPERBOLIC:
        nu = spec.params.nu
        d = x / (1.0 + np.sqrt(1.0 + x))  # sqrt(1 + x) - 1 without cancellation
        log_sf = np.log1p(nu * d / (nu + 1.0)) - nu * d
        log_xf = np.log(x) - nu * d + math.log(0.5 * nu * nu / (nu + 1.0))
        return log_sf, np.log(-np.expm1(log_sf)), log_xf
    if spec.id is GeneratorId.LAPLACE:
        v = _SQRT2 * np.sqrt(x)  # 2x may overflow
        log_sf = np.log(v * specfun.bessel_k1e(v)) - v
        cdf = -np.expm1(log_sf)
        xh = x[v < 0.5, None]
        terms = _LAPLACE_HEAD_C * (2.0 * xh) ** (_HEAD_K + 1)
        cdf[v < 0.5] = -np.sum(terms * (np.log(0.5 * xh) - _LAPLACE_HEAD_D), axis=1)
        return log_sf, np.log(cdf), np.log(x * specfun.bessel_k0e(v)) - v
    # logslash: S = T + e^-y with T = y^(1-s) gamma(s, y) = 2^s y g(x), y = x/2,
    # and x f(x) = (s - 1) T; log_g keeps log T finite (series near 0)
    s = 0.5 * (spec.params.nu + 1.0)
    log_t = log_g(spec, x) + np.log(x) + (s - 1.0) * math.log(2.0)
    log_cdf = np.log(-np.expm1(-0.5 * x) - np.exp(log_t))
    return np.logaddexp(log_t, -0.5 * x), log_cdf, math.log(s - 1.0) + log_t


_X_MAX = np.finfo(float).max
_LOG_X_LO, _LOG_X_HI = math.log(np.finfo(float).tiny), math.log(_X_MAX)


def _radial_isf_newton(spec: GeneratorSpec, q: np.ndarray, t: np.ndarray):
    """Solve S(e^t) = q by Newton in t = log x from the guess t, vectorized.

    For q > 1/2 it solves log F = log(1 - q), else log S = log q, so the
    residual keeps its relative accuracy. Each evaluation narrows a bracket,
    initially the double range, and a step leaving it bisects instead. The
    residual is known to about 1 ulp while the slope can tend to 0, so a
    point stops when its step is <= 1e-12 or its residual is within 4 ulp of
    max(1, |target|); either test alone can cycle forever. Roots beyond the
    double range are +inf.
    """
    x = np.full_like(q, np.inf)
    idx = np.nonzero(np.log(q) >= _radial_log_tails(spec, np.array([_X_MAX]))[0])[0]
    q, t = q[idx], np.clip(t[idx], _LOG_X_LO, _LOG_X_HI)
    head = q > 0.5
    target = np.where(head, np.log1p(-q), np.log(q))
    lo, hi = np.full_like(t, _LOG_X_LO), np.full_like(t, _LOG_X_HI)
    for _ in range(100):
        if idx.size == 0:
            return x
        log_sf, log_cdf, log_xf = _radial_log_tails(spec, np.exp(t))
        f = np.where(head, target - log_cdf, log_sf - target)  # > 0 below the root
        slope = -np.exp(log_xf - np.where(head, log_cdf, log_sf))
        lo, hi = np.where(f > 0.0, t, lo), np.where(f < 0.0, t, hi)
        t_new = t - f / np.minimum(slope, -np.finfo(float).tiny)
        t_new = np.where((lo < t_new) & (t_new < hi), t_new, 0.5 * (lo + hi))
        small = np.abs(f) <= 4.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(target))
        done = small | (np.abs(t_new - t) <= 1e-12)
        x[idx[done]] = np.exp(np.where(small, t, t_new)[done])
        idx, head, target, t, lo, hi = (
            a[~done] for a in (idx, head, target, t_new, lo, hi)
        )
    raise RootFindingError(f"{spec.label()}: radial quantile did not converge")


def partition_numeric(spec: GeneratorSpec, epsrel: float = 1e-10) -> float:
    """Z by adaptive quadrature of pi * int_0^inf g(u) du."""

    def integrand(u):
        return g(spec, u)

    # split at 1 so endpoint singularities (loglaplace log divergence) and the
    # infinite tail are handled in separate panels
    v1, e1 = integrate.quad(integrand, 0.0, 1.0, epsabs=0.0, epsrel=epsrel, limit=200)
    v2, e2 = integrate.quad(
        integrand, 1.0, np.inf, epsabs=1e-14, epsrel=epsrel, limit=200
    )
    total = v1 + v2
    if not np.isfinite(total) or (e1 + e2) > max(1e-12, 100 * epsrel * abs(total)):
        raise IntegrationError(
            f"partition quadrature failed for {spec.label()}: "
            f"value {total}, error estimate {e1 + e2}"
        )
    return math.pi * total


def characteristic_generator(spec: GeneratorSpec, x: float) -> float | None:
    """Moment generator vartheta(x) with E[T^r] = eta^r vartheta(sigma^2 r^2).

    Returns None for families without a closed form (all but lognormal).
    """
    if not spec.has_characteristic_generator:
        return None
    if not x >= 0.0:
        raise DomainError(f"characteristic generator requires x >= 0, got {x}")
    return math.exp(0.5 * x)
