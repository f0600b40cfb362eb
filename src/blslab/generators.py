"""Density-generator registry for the bivariate log-symmetric class.

Each family is a nonnegative density generator g(x) on [0, inf) together with
its normalizing partition constant Z = pi * int_0^inf g(u) du, its score ratio
r(x) = g'(x)/g(x), and optional extra parameters.  The eight families:

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
from scipy import integrate

from . import specfun
from .errors import DomainError, IntegrationError

__all__ = [
    "GeneratorId",
    "GeneratorParams",
    "GeneratorSpec",
    "make_generator",
    "g",
    "log_g",
    "r",
    "partition_closed",
    "partition_numeric",
    "characteristic_generator",
    "FAMILY_NAMES",
]

_SLASH_SERIES_X = 1e-5  # below this, slash g and r switch to their series forms


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

    @property
    def has_closed_radial_law(self) -> bool:
        return self.id in (GeneratorId.LOGNORMAL, GeneratorId.STUDENT_T)

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
        out = -specfun.bessel_k1e(u) / (u * specfun.bessel_k0e(u))
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
            yb = y[~small]
            S = s * specfun.lower_incomplete_gamma(s, yb) * yb**-s
            out[~small] = (s / xa[~small]) * (np.exp(-yb) - S) / S
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
