"""Density-generator registry for the bivariate log-symmetric class.

Each family is a nonnegative density generator g(x) on [0, inf) together with
its normalizing partition constant Z = pi * int_0^inf g(u) du, its score ratio
r(x) = g'(x)/g(x) and that ratio's derivative r'(x), the survival function of
its radial law pi g(x) / Z and that function's inverse, and optional extra
parameters, whose accepted ranges _PARAM_RULES states.  The eight families:

    lognormal             g(x) = exp(-x/2)
    logt(nu)              g(x) = (1 + x/nu)^(-(nu+2)/2)
    logpvii(xi, theta)    g(x) = (1 + x/theta)^(-xi)
    loghyperbolic(nu)     g(x) = exp(-nu sqrt(1+x))
    loglaplace            g(x) = K0(sqrt(2x))
    logslash(nu)          g(x) = x^(-(nu+1)/2) gamma((nu+1)/2, x/2)
    logpexp(xi)           g(x) = exp(-x^(1/(1+xi)) / 2)
    loglogistic           g(x) = exp(-x) / (1 + exp(-x))^2

logt(nu) is the Pearson VII generator logpvii(nu/2 + 1, nu); the two share one
kernel. sigma -> c sigma with theta -> theta / c^2 leaves the bivariate density
unchanged, so logpvii(xi, theta) at scales sigma is logt(2 xi - 2) at scales
sigma sqrt(theta / (2 xi - 2)), and a profile over theta at fixed xi is flat.

Every radial survival function S is closed. Its inverse is closed for
lognormal, logt, logpvii, logpexp and loglogistic; for loghyperbolic,
loglaplace and logslash it takes safeguarded Halley steps on log S, and S is
e^(log S) of the same tail evaluation. Those three families and logpexp draw
the radial law from an exact product of standard draws instead of the inverse.

The moment generating function of the standardized margin, which gives
every moment and the correlation, is one radial integral of I0 (_log_mgf),
and partition_numeric checks Z and distribution the line mass of its
densities on the same fixed panels (_log_integral).

The special functions are scipy.special's, called from the kernels:
loglaplace's K0 and K1 as the scaled k0e and k1e, logslash's lower
incomplete gamma as gammainc * gamma, logpexp's radial law through
gammainc, gammaincc and their inverses, and I0 as i0e. The accuracy contracts are the
kernels' own: for x in [1e-8, 1e3], g of loglaplace and logslash is within
1e-12 relative of 40-digit mpmath and log g within 1e-12 absolute, and
radial_sf and radial_isf state theirs. A fit's _fit_kernel gives r and r' from
the k0e or incomplete gamma of its log g, with the bits of the public calls.

log_g and g give a 0-d argument the bits of the 1-element array's result.
One expression serves both where it needs neither np.where nor
np.errstate; logslash's series switch, loglaplace's k0e(inf) = 0 and the
overflow of x/theta in logt and logpvii with theta < 1 take a branch of
Python float arithmetic and comparisons around the same numpy and scipy
ufuncs, in the same order. Those stay ufuncs, since math.log, exp and pow
differ from numpy's SIMD loops in the last bit at a few percent of points.

The enum values double as the CLI family names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

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
    "dr",
    "partition_closed",
    "radial_sf",
    "radial_isf",
    "radial_draw",
    "partition_numeric",
    "characteristic_generator",
    "FAMILY_NAMES",
]

special = specfun.LazyModule("scipy.special")

_SLASH_SERIES_X = 1e-5  # below this, slash g and log_g switch to their series forms
_X_MAX, _TINY = np.finfo(float).max, np.finfo(float).tiny
_SQRT2 = math.sqrt(2.0)
_LOG2 = math.log(2.0)


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
_PEARSON_VII = (GeneratorId.STUDENT_T, GeneratorId.PEARSON_VII)
_SINGULAR_AT_0 = (GeneratorId.LAPLACE, GeneratorId.SLASH)


def _family_id(family) -> GeneratorId:
    # a GeneratorId, or its name; DomainError for anything else
    if isinstance(family, GeneratorId):
        return family
    try:
        return FAMILY_NAMES[family]
    except (KeyError, TypeError):
        raise DomainError(
            f"unknown family {family!r}; expected one of {sorted(FAMILY_NAMES)}"
        ) from None


@dataclass(frozen=True)
class GeneratorParams:
    """Extra parameters; only the fields a family uses may be set."""

    nu: float | None = None
    xi: float | None = None
    theta: float | None = None


# Each family's extra parameters, in label order, and the range lo < value
# <= hi a GeneratorSpec accepts. Past an end a kernel leaves the doubles or
# its accuracy contract: logt r'(0) = (nu + 2) / (2 nu^2); logpvii r'(0) =
# xi / theta^2 and Z; loghyperbolic Z (a normal double); logslash s - 1 (0 at
# the double after 1) and gamma(s, x/2) near x = 1e-5 (0 from nu ~ 94).
# logpexp's lower end, a = 1 + xi ~ 9e-4, is the smallest a at which its
# radial law is checked against mpmath. A value must also be 0 or a normal
# double, or logpexp's r' is 0 * inf at a subnormal xi and x.
_PARAM_RULES = {
    GeneratorId.LOGNORMAL: {},
    GeneratorId.STUDENT_T: {"nu": (1e-154, 1e308)},
    GeneratorId.PEARSON_VII: {"xi": (1.0, 1e100), "theta": (1e-100, 1e100)},
    GeneratorId.HYPERBOLIC: {"nu": (1e-153, 700.0)},
    GeneratorId.LAPLACE: {},
    GeneratorId.SLASH: {"nu": (1.0 + 1e-12, 90.0)},
    GeneratorId.POWER_EXP: {"xi": (-0.9991, 1.0)},
    GeneratorId.LOGISTIC: {},
}


def _validate_params(gid: GeneratorId, p: GeneratorParams) -> None:
    used = _PARAM_RULES[gid]
    given = [name for name in ("nu", "xi", "theta") if getattr(p, name) is not None]
    if given != list(used):
        raise DomainError(f"{gid.value} takes the parameters {list(used)}, got {given}")
    for name, (lo, hi) in used.items():
        val = getattr(p, name)
        if not lo < val <= hi or 0.0 < abs(val) < _TINY:
            raise DomainError(
                f"{gid.value} requires a finite, non-subnormal {name} "
                f"in ({lo!r}, {hi!r}], got {val}"
            )


@dataclass(frozen=True)
class GeneratorSpec:
    """A family (a GeneratorId or its name) together with fixed extra parameters."""

    id: GeneratorId
    params: GeneratorParams = field(default_factory=GeneratorParams)

    def __post_init__(self):
        object.__setattr__(self, "id", _family_id(self.id))
        _validate_params(self.id, self.params)

    @cached_property
    def log_z(self) -> float:
        """log of the partition constant Z, taken once per spec."""
        return math.log(partition_closed(self))

    @cached_property
    def _tail_ladder(self) -> np.ndarray:
        """Radii sqrt(isf(2^-k)), k = 1 ... 1022, below sqrt(1e300), once per
        spec: the angle rule's tail break levels, from which it picks 40."""
        q = np.ldexp(1.0, -np.arange(1, 1023))
        return np.sqrt(radial_isf(self, q[q > radial_sf(self, 1e300)]))

    def param_text(self) -> str:
        """The extra parameters as "name=value,..."; "" for a family without any."""
        return ",".join(f"{n}={getattr(self.params, n):g}" for n in _PARAM_RULES[self.id])

    def label(self) -> str:
        text = self.param_text()
        return f"{self.id.value}({text})" if text else self.id.value


def make_generator(
    family: str | GeneratorId,
    nu: float | None = None,
    xi: float | None = None,
    theta: float | None = None,
) -> GeneratorSpec:
    """Build a GeneratorSpec from a family name and extra parameters."""
    return GeneratorSpec(family, GeneratorParams(nu=nu, xi=xi, theta=theta))


# ---------------------------------------------------------------------------
# generator evaluation


def _arg(x):
    # a float for 0-d input, else a float array; x >= 0 everywhere, not NaN
    return specfun.checked(x, "generator argument must be >= 0, not NaN", DomainError)


def _ret(out, x):
    # a float for a float argument; out may be a numpy scalar, or a 0-d or
    # 1-element array
    return np.asarray(out).item() if isinstance(x, float) else out


def _pvii(p: GeneratorParams) -> tuple[float, float, float]:
    # (xi, xi - 1, theta) of g(x) = (1 + x/theta)^-xi; logt's xi - 1 is nu/2
    # exactly, which (nu/2 + 1) - 1 is not
    if p.nu is not None:
        return 0.5 * p.nu + 1.0, 0.5 * p.nu, p.nu
    return p.xi, p.xi - 1.0, p.theta


def _log1p_ratio(x, theta: float):
    # log(1 + x/theta); for theta < 1, x/theta overflows at x > theta * X_MAX,
    # where the 1 is negligible and it is log(x) - log(theta)
    if theta >= 1.0:
        return np.log1p(x / theta)
    if isinstance(x, float):  # a Python float overflows quietly
        u = x / theta
        return np.log1p(u) if u < math.inf else np.log(max(x, 1.0)) - math.log(theta)
    with np.errstate(over="ignore"):
        u = np.log1p(x / theta)
    big = np.isinf(u)  # where x = inf, log(x) - log(theta) is inf as well
    return np.where(big, np.log(np.maximum(x, 1.0)) - math.log(theta), u) if big.any() else u


def _pvii_ratio(x, c: float, theta: float):
    # c / (theta + x). theta + x overflows only for theta >= 2^970, half an
    # ulp of X_MAX (logt with nu ~ 1e308), at x near X_MAX: there it is
    # (c / theta) / (1 + x / theta)
    if theta < 2.0**970:
        return c / (theta + x)
    with np.errstate(over="ignore"):
        s = np.add(theta, x)
    return np.where(np.isinf(s), (c / theta) / (1.0 + x / theta), c / s)


def _slash_g_series(s: float, y):
    # g(x) = 2^-s (1/s - y/(s+1) + y^2/(2(s+2))),  y = x/2 -> 0
    return 2.0**-s * (1.0 / s - y / (s + 1.0) + y * y / (2.0 * (s + 2.0)))


def _lower_gamma(s: float, y):
    # the lower incomplete gamma function gamma(s, y) = int_0^y t^(s-1) e^-t dt
    return special.gammainc(s, y) * special.gamma(s)


def log_g(spec: GeneratorSpec, x):
    """log g(x); stable for large x (no under/overflow for any family).

    A float (or any 0-d input) gives a float with the bits of the 1-element
    array's result, an array gives an array. log g(inf) = -inf for every
    family, and so is a log g that falls below the double range (logpexp
    with xi < 0 at x ~ 1e300). loglaplace has log g(0) = +inf. DomainError
    for x < 0 or NaN.
    """
    x, gid, p = _arg(x), spec.id, spec.params
    one = isinstance(x, float)  # the float path; see the module docstring
    if gid is GeneratorId.LOGNORMAL:
        out = -0.5 * x
    elif gid in _PEARSON_VII:
        xi, _, theta = _pvii(p)
        out = -xi * _log1p_ratio(x, theta)
    elif gid is GeneratorId.HYPERBOLIC:
        out = -p.nu * np.sqrt(1.0 + x)
    elif gid is GeneratorId.LAPLACE:
        # K0 has an integrable log singularity at 0: k0e(0) = inf gives
        # log g(0) = +inf, so that g == exp(log_g) holds on all of [0, inf);
        # k0e(inf) = 0 gives log g(inf) = -inf
        u = _laplace_u(x)
        if one:
            k = special.k0e(u)
            out = np.log(k) - u if k > 0.0 else -math.inf
        else:
            out = _laplace_log_g(u, special.k0e(u))
    elif gid is GeneratorId.SLASH:
        s = 0.5 * (p.nu + 1.0)
        if one and x < _SLASH_SERIES_X:
            out = np.log(_slash_g_series(s, 0.5 * x))
        elif one:
            out = np.log(_lower_gamma(s, 0.5 * x)) - s * np.log(x)
        else:
            out = _slash_log_g(s, x)[0]
    elif gid is GeneratorId.POWER_EXP:
        a = 1.0 / (1.0 + p.xi)
        if p.xi >= 0.0:  # a <= 1: x^a stays finite
            out = -0.5 * np.power(x, a)
        else:
            with np.errstate(over="ignore"):  # x^a overflows
                out = -0.5 * np.power(x, a)
    else:  # loglogistic
        out = -x - 2.0 * np.log1p(np.exp(-x))
    return float(out) if one else out


def g(spec: GeneratorSpec, x):
    """Density generator g(x) = exp(log g(x)) >= 0 evaluated elementwise.

    A float (or any 0-d input) gives a float, an array gives an array, bit
    for bit alike; g(inf) = 0, loglaplace has g(0) = +inf. DomainError for
    x < 0 or NaN.
    """
    val = log_g(spec, x)
    return float(np.exp(val)) if isinstance(val, float) else np.exp(val)


def _score_arg(spec: GeneratorSpec, x):
    # the argument of r and r', which are singular at x = 0 for loglaplace,
    # logslash (a 0/0 form) and logpexp with xi > 0
    x, gid = _arg(x), spec.id
    if gid in _SINGULAR_AT_0 or (gid is GeneratorId.POWER_EXP and spec.params.xi > 0.0):
        if not (x if isinstance(x, float) else x.all()):  # a 0 anywhere
            raise DomainError(f"{spec.label()} score ratio is singular at x = 0")
    return x


def r(spec: GeneratorSpec, x):
    """Score ratio r(x) = g'(x)/g(x).

    A float (or any 0-d input) gives a float, an array gives an array.
    Domain error at x = 0 for the families whose ratio is singular there
    (loglaplace, logslash, logpexp with xi > 0), and for x < 0 or NaN.
    -inf where r falls below the double range: logpexp with xi < 0 at x ~
    1e300 (xi = -0.9), as its limit at +inf is, and loglaplace at 5e-324.
    """
    x = _score_arg(spec, x)
    gid, p = spec.id, spec.params
    if gid is GeneratorId.LOGNORMAL:
        out = np.full_like(x, -0.5)
    elif gid in _PEARSON_VII:
        xi, _, theta = _pvii(p)
        out = -_pvii_ratio(x, xi, theta)
    elif gid is GeneratorId.HYPERBOLIC:
        out = -0.5 * p.nu / np.sqrt(1.0 + x)
    elif gid is GeneratorId.LAPLACE:
        u = _laplace_u(x)
        out = _laplace_score(x, u, special.k0e(u))[0]
    elif gid is GeneratorId.SLASH:
        out = _slash_score(p, x)
    elif gid is GeneratorId.POWER_EXP:
        with np.errstate(over="ignore"):  # x^(-xi/(1+xi)) overflows for xi < 0
            out = -np.power(x, -p.xi / (1.0 + p.xi)) / (2.0 * (1.0 + p.xi))
    else:  # loglogistic
        out = -np.tanh(0.5 * x)
    return _ret(out, x)


def dr(spec: GeneratorSpec, x):
    """Derivative r'(x) of the score ratio, in closed form for every family.

    A float (or any 0-d input) gives a float, an array gives an array.
    Singular at x = 0 where r is (same DomainError), and +inf near it where
    r' leaves the doubles; finite or -0 at +inf but for logpexp, xi < -1/2: -inf.
    """
    x = _score_arg(spec, x)
    gid, p = spec.id, spec.params
    if gid is GeneratorId.LOGNORMAL:
        out = np.zeros_like(x)
    elif gid in _PEARSON_VII:
        xi, _, theta = _pvii(p)
        t = _pvii_ratio(x, 1.0, theta)
        out = xi * t * t
    elif gid is GeneratorId.HYPERBOLIC:
        t = 1.0 / (1.0 + x)
        out = 0.25 * p.nu * t * np.sqrt(t)
    elif gid is GeneratorId.LAPLACE:
        u = _laplace_u(x)
        out = _laplace_score(x, u, special.k0e(u))[1]
    elif gid is GeneratorId.SLASH:
        out = _slash_score(p, x, with_dr=True)[1]
    elif gid is GeneratorId.POWER_EXP and p.xi == 0.0:
        out = np.zeros_like(x)
    elif gid is GeneratorId.POWER_EXP:
        # r' = k r / x with r = -x^k / (2a), k = -xi/a; -inf at 0 for
        # -1/2 < xi < 0 and at inf for xi < -1/2, as the limits are
        a = 1.0 + p.xi
        with np.errstate(divide="ignore", over="ignore"):
            out = p.xi / (2.0 * a * a) * np.power(x, -(1.0 + 2.0 * p.xi) / a)
    else:  # loglogistic
        e = np.exp(-x)
        out = -2.0 * e / ((1.0 + e) * (1.0 + e))
    return _ret(out, x)


def _laplace_u(x):
    # u = sqrt(2x) of loglaplace's g = K0(u); sqrt(2) sqrt(x) where 2x
    # overflows (x > X_MAX/2), and only there, as it moves the last bit of u
    if isinstance(x, float):
        return math.sqrt(2.0 * x) if x <= 0.5 * _X_MAX else _SQRT2 * math.sqrt(x)
    if x.max(initial=0.0) <= 0.5 * _X_MAX:
        return np.sqrt(2.0 * x)
    u, big = _SQRT2 * np.sqrt(x), x > 0.5 * _X_MAX
    u[~big] = np.sqrt(2.0 * x[~big])
    return u


def _laplace_log_g(u, k0):
    # log g = log K0(u) on an array, from u = sqrt(2x) and k0 = k0e(u)
    with np.errstate(divide="ignore"):
        return np.log(k0) - u


def _laplace_score(x, u, k0):
    # (r, r') at x > 0 from u = sqrt(2x) and k0 = k0e(u). r = -K1(u) / (u K0(u)):
    # k0e and k1e both vanish at u = inf, where r ~ -1/u is -0: the quotient is
    # NaN there and nowhere else, and fmin takes -0 for it; r ~ -1 / (2x log(1/x))
    # is -inf at 5e-324. g solves 2x g'' + 2g' - g = 0, so r' = (1/2 - r)/x - r^2;
    # below x ~ 1e-155 the first term overflows first and r' ~ 1 / (2 x^2
    # log(1/x)) is +inf, which fmin takes for the NaN of inf - inf
    with np.errstate(over="ignore", invalid="ignore"):
        rx = np.fmin(-special.k1e(u) / (u * k0), -0.0)
        return rx, np.fmin((0.5 - rx) / x - rx * rx, np.inf)


def _slash_log_g(s: float, x: np.ndarray):
    # log g on an array, the closed form at x >= the series switch and the
    # series below it, and gamma(s, y) at y = max(x, the switch) / 2, which
    # _slash_score reuses above its own switch
    xc = np.maximum(x, _SLASH_SERIES_X)
    lg = _lower_gamma(s, 0.5 * xc)
    out = np.log(lg)
    out -= np.multiply(s, np.log(xc, out=xc), out=xc)  # in xc's place: log g holds 3 arrays at once
    lo = x < _SLASH_SERIES_X
    if lo.any():
        out[lo] = np.log(_slash_g_series(s, 0.5 * x[lo]))
    return out, lg


def _slash_score(p: GeneratorParams, x, lg=None, with_dr=False):
    """logslash's r at x > 0, or (r, r') with_dr, from the same parts. Each
    side of the switch at x = max(1, s/2) is evaluated only on its own side.

    Below the switch r = -(s/2) P/M and r' = -(s/4)(P' - P^2)/M^2, free of
    the closed form's 0/0 cancellation: M(y) = sum_k y^k / (s+1)_k is
    Kummer's 1F1(1; s+1; y) = e^y s gamma(s, y) y^-s, P = (M - 1)/y =
    1F1(1; s+2; y) / (s+1) and P' = 1F1(2; s+3; y) / ((s+1)(s+2)), and the
    series ratio y / (s + k) stays below 1/4. Above it r = h - s/x with
    h = (s/x) e^-y / S, S = s gamma(s, y) y^-s, with gamma(s, y) taken from
    lg, the second value of _slash_log_g(s, x), where given. Once e^-y
    underflows (x > 1490) h is 0 and r = -s/x exactly; S follows it to 0
    beyond x ~ 1e123 (s = 2.5). S falls with y, so while e^-y > 0 (y <
    745.2) S > S(745.2) > 1e-75 (nu <= 90), and max(S, tiny) is S; h = 0
    where e^-y = 0.
    """
    s = 0.5 * (p.nu + 1.0)
    x = np.asarray(x)
    sides = lo, hi = x < max(1.0, 0.5 * s), x >= max(1.0, 0.5 * s)
    y, xc = 0.5 * x[lo], x[hi]
    yc = 0.5 * xc
    P = special.hyp1f1(1.0, s + 2.0, y) / (s + 1.0)
    M = 1.0 + y * P
    S = s * (_lower_gamma(s, yc) if lg is None else lg[hi]) * np.power(yc, -s)
    h = (s / xc) * np.exp(-yc) / np.maximum(S, _TINY)
    r = _by_side(sides, -0.5 * s * P / M, h - s / xc)
    if not with_dr:
        return r
    dP = special.hyp1f1(2.0, s + 3.0, y) / ((s + 1.0) * (s + 2.0))
    above = s / xc / xc - h * (0.5 + h + (1.0 - s) / xc)  # h' = -h (1/2 + h + (1 - s)/x)
    return r, _by_side(sides, -0.25 * s * (dP - P * P) / (M * M), above)


def _fit_kernel(spec: GeneratorSpec, q: np.ndarray):
    """log g at the squared radii q (a float array) of a Newton point, and a
    thunk for (r, r') there, with the bits of log_g, r and dr. loglaplace and
    logslash check q once, and their r and r' reuse k0e(sqrt(2q)) or gamma(s,
    q/2); the closed families call log_g, r and dr. DomainError for q < 0 or
    NaN, and where r is singular at q = 0 (from the thunk for logpexp)."""
    if spec.id not in _SINGULAR_AT_0:
        return log_g(spec, q), lambda: (r(spec, q), dr(spec, q))
    q = _score_arg(spec, q)
    if spec.id is GeneratorId.LAPLACE:
        u = _laplace_u(q)
        k0 = special.k0e(u)
        return _laplace_log_g(u, k0), lambda: _laplace_score(q, u, k0)
    out, lg = _slash_log_g(0.5 * (spec.params.nu + 1.0), q)
    return out, lambda: _slash_score(spec.params, q, lg, with_dr=True)


def _by_side(sides, below, above):
    # one array from its values on the two sides (lo, hi) of a switch
    out = np.empty(sides[0].shape)
    out[sides[0]], out[sides[1]] = below, above
    return out


# ---------------------------------------------------------------------------
# partition constants Z = pi * int_0^inf g(u) du


def partition_closed(spec: GeneratorSpec) -> float:
    """Closed-form partition constant Z for the family."""
    gid, p = spec.id, spec.params
    if gid is GeneratorId.LOGNORMAL:
        return 2.0 * math.pi
    if gid in _PEARSON_VII:
        _, xm1, theta = _pvii(p)
        return math.pi * (theta / xm1)  # pi * theta would overflow first
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
            * math.exp(math.lgamma(1.0 + p.xi))
            * math.pi
        )
    return 0.5 * math.pi  # loglogistic


# ---------------------------------------------------------------------------
# radial law: the squared Mahalanobis radius X has density pi g(x) / Z


def radial_sf(spec: GeneratorSpec, x):
    """Survival function S(x) = P(X > x) of the radial law pi g(x) / Z.

    Closed form for every family, computed as the upper tail itself, so a
    tail probability keeps its relative accuracy (no 1 - F cancellation).
    For loghyperbolic, loglaplace and logslash it is e^(log S) of the tails
    that radial_isf inverts. logpexp takes 1 - P(a, w) below w = 1.1 where
    it is above 0.01, so within ~100 eps relative, and Q(a, w) elsewhere.
    DomainError for x < 0 or NaN.
    """
    x0 = _arg(x)
    xa = np.atleast_1d(x0)
    out = (xa == 0.0).astype(float)  # S(0) = 1, S(inf) = 0
    inner = (xa > 0.0) & (xa < np.inf)
    x, gid, p = xa[inner], spec.id, spec.params
    if gid is GeneratorId.LOGNORMAL:
        sf = np.exp(-0.5 * x)
    elif gid in _PEARSON_VII:
        _, xm1, theta = _pvii(p)
        sf = np.exp(-xm1 * _log1p_ratio(x, theta))
    elif gid is GeneratorId.POWER_EXP:
        # S = Q(a, w), a = 1 + xi, w = x^(1/a) / 2: 1 - P below w = 1.1, where
        # scipy's Q is 5-30x slower than P for a < 1, with P = w^a / Gamma(a + 1)
        # = x / (2^a Gamma(a + 1)) where w < 1e-100 or underflows (xi -> -1).
        # 1 - P is within ~eps / S of S, so Q where S < 0.01 (a < ~0.05) too
        a = 1.0 + p.xi
        with np.errstate(over="ignore"):  # w = inf beyond the double range: S = 0
            w = 0.5 * np.power(x, 1.0 / a)
        head, tiny = w < 1.1, w < 1e-100
        sf = np.zeros_like(w)
        sf[head] = 1.0 - special.gammainc(a, w[head])
        sf[tiny] = 1.0 - x[tiny] / (2.0**a * math.gamma(a + 1.0))
        tail = sf < 0.01  # and every point at or above w = 1.1, where sf is 0
        sf[tail] = special.gammaincc(a, w[tail])
    elif gid is GeneratorId.LOGISTIC:
        sf = 2.0 * special.expit(-x)
    else:
        # the tails' log F and dL, unused here, take log 0 or 0 * inf at a
        # subnormal x and overflow near the top of the doubles
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            sf = np.exp(_radial_log_tails(spec, x)[0])
    out[inner] = sf
    return _ret(out, x0)


def radial_isf(spec: GeneratorSpec, q):
    """Inverse survival function: the x with S(x) = q, for q in (0, 1].

    Closed for lognormal, logt, logpvii, logpexp and loglogistic.
    loghyperbolic, loglaplace and logslash invert S by Halley steps (see
    _radial_isf_newton). Each root is within 1e-12 relative of the exact one
    and independent of the other points of the call. DomainError where x
    exceeds the double range.
    """
    scalar = np.ndim(q) == 0
    qa = np.atleast_1d(np.asarray(q, dtype=float))
    if not np.all((qa > 0.0) & (qa <= 1.0)):
        raise DomainError("radial_isf requires q in (0, 1]")
    out = np.zeros_like(qa)  # isf(1) = 0
    inner = qa < 1.0
    q, gid, p = qa[inner], spec.id, spec.params
    with np.errstate(over="ignore"):  # an overflow is reported below
        if gid is GeneratorId.LOGNORMAL:
            x = -2.0 * np.log(q)
        elif gid in _PEARSON_VII:
            _, xm1, theta = _pvii(p)
            y = -np.log(q) / xm1
            x = theta * np.expm1(y)
            big = np.isinf(x)  # for theta < 1, expm1 overflows first
            x[big] = np.exp(y[big] + math.log(theta))
            tiny = y < _TINY  # a subnormal y (logt, nu > ~1e292) lost bits: x = theta y
            x[tiny] = (theta / xm1) * -np.log(q[tiny])
        elif gid is GeneratorId.POWER_EXP:
            # x = (2w)^a with Q(a, w) = q, from P(a, w) = 1 - q above 1/2, where
            # 1 - q is exact; where w < 1e-100 (it underflows as xi -> -1),
            # P = w^a / Gamma(a + 1) gives x = 2^a Gamma(a + 1) (1 - q)
            a = 1.0 + p.xi
            w, head = np.empty_like(q), q > 0.5
            w[head] = special.gammaincinv(a, 1.0 - q[head])
            w[~head] = special.gammainccinv(a, q[~head])
            x = np.exp(a * (np.log(np.maximum(w, 1e-100)) + _LOG2))
            tiny = w < 1e-100
            x[tiny] = 2.0**a * math.gamma(a + 1.0) * (1.0 - q[tiny])
        elif gid is GeneratorId.LOGISTIC:
            x = np.log1p(2.0 * (1.0 - q) / q)
        else:
            x = _radial_isf_newton(spec, q)
    if np.any(np.isinf(x)):
        raise DomainError(
            f"{spec.label()}: the radial quantile at tail probability "
            f"{np.min(q):g} exceeds the double range"
        )
    out[inner] = x
    return out.item() if scalar else out


def radial_draw(spec: GeneratorSpec, q: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Draws of the radial law, one for each uniform q in (0, 1] of a 1-d q.

    lognormal, logt, logpvii and loglogistic return radial_isf(spec, q) and
    take nothing from rng. The other four are normal scale mixtures (Andrews
    & Mallows 1974): each draw is an exact product of standard draws
    (Devroye 1986), with E = -log q as one Exp(1) and the rest taken from
    rng, n values at a time in the order listed:

        loglaplace          X = 2 E E',  E' ~ Exp(1)
        logslash(nu)        X = 2 E' q^(-2/(nu - 1)),  E' ~ Exp(1)
        loghyperbolic(nu)   X = (t/nu)(2 + t/nu), t = E plus E' ~ Exp(1)
                            where a uniform falls below 1/(nu + 1)
        logpexp(xi)         X = (2G)^a q,  a = 1 + xi, G ~ Gamma(a + 1)

    DomainError where a draw exceeds the double range.
    """
    gid, p, n = spec.id, spec.params, q.size
    if gid in _PEARSON_VII or gid in (GeneratorId.LOGNORMAL, GeneratorId.LOGISTIC):
        return radial_isf(spec, q)
    e = -np.log(q)
    with np.errstate(over="ignore"):  # an overflow is reported below
        if gid is GeneratorId.LAPLACE:
            x = 2.0 * e * rng.standard_exponential(n)
        elif gid is GeneratorId.SLASH:
            x = 2.0 * rng.standard_exponential(n) * np.power(q, -2.0 / (p.nu - 1.0))
        elif gid is GeneratorId.HYPERBOLIC:
            e2, coin = rng.standard_exponential(n), rng.random(n)
            d = (e + np.where(coin < 1.0 / (p.nu + 1.0), e2, 0.0)) / p.nu
            x = d * (2.0 + d)
        else:  # logpexp: w = x^(1/a) / 2 ~ Gamma(a) is G times a Beta(a, 1)
            a = 1.0 + p.xi
            x = np.exp(a * np.log(2.0 * rng.standard_gamma(a + 1.0, n)) - e)
    if np.any(np.isinf(x)):
        raise DomainError(f"{spec.label()}: a radial draw exceeds the double range")
    return x


def _isf_start(spec: GeneratorSpec, q: np.ndarray) -> np.ndarray:
    """A closed guess at log x for the root of S(x) = q, for loghyperbolic,
    loglaplace and logslash."""
    lq, p = -np.log(q), spec.params
    if spec.id is GeneratorId.HYPERBOLIC:
        d = lq / p.nu  # S = e^(-nu d) (1 + nu d / (nu + 1)) with d = sqrt(1+x) - 1
        return np.log(d * (2.0 + d))
    if spec.id is GeneratorId.LAPLACE:
        v = lq + 0.5 * np.log1p(0.5 * math.pi * lq)  # tail: S ~ sqrt(pi v/2) e^-v
        return np.log(np.maximum(lq, 0.5 * v * v))
    # logslash: start from logpvii(xi = theta = s), the same head and tail order
    s = 0.5 * (p.nu + 1.0)
    a = lq / (s - 1.0)
    return math.log(2.0 * s) + a + np.log(-np.expm1(-a))


# loglaplace head: 1 - v K1(v) = -sum_k c_k (2x)^(k+1) (log(x/2) - d_k), v = sqrt(2x),
# c_k = 1 / (4^(k+1) k! (k+1)!) and d_k = psi(k+1) + psi(k+2) with psi(n+1) = H_n - gamma
_HEAD_K = np.arange(7)
_FACT = np.cumprod(np.r_[1.0, _HEAD_K + 1.0])  # 0! .. 7!
_PSI = np.r_[0.0, np.cumsum(1.0 / (_HEAD_K + 1.0))] - np.euler_gamma  # psi(1) .. psi(8)
_LAPLACE_HEAD_C = 1.0 / (4.0 ** (_HEAD_K + 1) * _FACT[:-1] * _FACT[1:])
_LAPLACE_HEAD_D = _PSI[:-1] + _PSI[1:]


def _slash_log_t(s: float, x: np.ndarray) -> np.ndarray:
    """log T with T = y^(1-s) gamma(s, y) = 2^s y g(x), y = x/2, x > 0: the
    series of g near 0, above it gamma(s, y) and y^(1-s) apart, as log g +
    log x would cancel (x ~ 1e60 at nu = 1.01 lost 4e-12 of x). Each form
    sees only its own side of the switch: no log(0), 0 * inf or inf - inf."""
    xc = np.maximum(x, _SLASH_SERIES_X)
    out = np.log(_lower_gamma(s, 0.5 * xc)) + (1.0 - s) * np.log(0.5 * xc)
    lo = x < _SLASH_SERIES_X
    if lo.any():  # the series below the switch
        xs = x[lo]
        out[lo] = np.log(_slash_g_series(s, 0.5 * xs)) + np.log(xs) + (s - 1.0) * _LOG2
    return out


def _radial_log_tails(spec: GeneratorSpec, x: np.ndarray):
    """log S(x), log F(x) = log(1 - S(x)), log(x f(x)) with f = pi g / Z, and
    dL = d log(x f(x)) / d log x = 1 + x r(x), at x > 0, for the three
    families that radial_isf inverts by Halley steps: loghyperbolic,
    loglaplace and logslash. Each of S and F keeps its relative accuracy (no
    1 - S cancellation for a small F, none of 1 - F for a small S).
    radial_sf takes their S from here."""
    if spec.id is GeneratorId.HYPERBOLIC:
        nu = spec.params.nu
        w = np.sqrt(1.0 + x)
        d = x / (1.0 + w)  # sqrt(1 + x) - 1 without cancellation
        log_sf = np.log1p(nu * d / (nu + 1.0)) - nu * d
        log_xf = np.log(x) - nu * d + math.log(0.5 * nu * nu / (nu + 1.0))
        return log_sf, np.log(-np.expm1(log_sf)), log_xf, 1.0 - 0.5 * nu * (x / w)
    if spec.id is GeneratorId.LAPLACE:
        v = _SQRT2 * np.sqrt(x)  # 2x may overflow
        vk1, k0 = v * special.k1e(v), special.k0e(v)
        log_sf = np.log(vk1) - v
        cdf = -np.expm1(log_sf)
        xh = x[v < 0.5, None]
        terms = _LAPLACE_HEAD_C * (2.0 * xh) ** (_HEAD_K + 1)
        cdf[v < 0.5] = -np.sum(terms * (np.log(0.5 * xh) - _LAPLACE_HEAD_D), axis=1)
        # x r(x) = -v K1(v) / (2 K0(v))
        return log_sf, np.log(cdf), np.log(x * k0) - v, 1.0 - 0.5 * vk1 / k0
    # logslash: S = T + e^-y, y = x/2, and x f(x) = (s - 1) T; x r(x) = y e^-y / T - s
    s = 0.5 * (spec.params.nu + 1.0)
    log_t = _slash_log_t(s, x)
    log_cdf = np.log(-np.expm1(-0.5 * x) - np.exp(log_t))
    dl = (1.0 - s) + np.exp(np.log(x) - _LOG2 - 0.5 * x - log_t)
    return np.logaddexp(log_t, -0.5 * x), log_cdf, math.log(s - 1.0) + log_t, dl


_LOG_X_LO, _LOG_X_HI = math.log(_TINY), math.log(_X_MAX)
_HALLEY_ACCEPT = 1e-4  # a Halley step this short leaves an error ~ step^3
_CHUNK = 1 << 12


def _radial_isf_newton(spec: GeneratorSpec, q: np.ndarray):
    """Solve S(x) = q by Halley's method in t = log x, vectorized, for
    loghyperbolic, loglaplace and logslash.

    For q > 1/2 it solves f = log(1 - q) - log F = 0, else f = log S - log q
    = 0, so the residual keeps its relative accuracy. With f' = -x f(x)/S
    (or /F) and dL = d log(x f(x)) / d log x, f'' = f' (dL - f') on the tail
    branch and f' (dL + f') on the head branch; the step is the Newton step
    f/f' divided by c = 1 - f f'' / (2 f'^2), or the Newton step itself
    where c leaves (1/2, 2). Each evaluation narrows a bracket, initially the
    double range, and a step leaving it bisects instead. A point stops when
    its residual is within 4 ulp of max(1, |target|) (the residual is known to
    about 1 ulp while the slope can tend to 0), when its step is <= 1e-12, or
    when a step inside the bracket is <= 1e-4: Halley's error after such a
    step is O(step^3), so t - step is accepted without another evaluation.
    Each point starts from the closed guess of _isf_start and takes 2-3
    evaluations of the tails. Roots beyond the double range are +inf. It
    works through q in chunks of _CHUNK points, so its temporaries stay
    small whatever the size of q.
    """
    x = np.full_like(q, np.inf)
    live = q >= radial_sf(spec, _X_MAX)
    for i in range(0, q.size, _CHUNK):
        idx = np.nonzero(live[i : i + _CHUNK])[0]
        t = np.clip(_isf_start(spec, q[i + idx]), _LOG_X_LO, _LOG_X_HI)
        _halley(spec, q[i + idx], t, x[i : i + _CHUNK], idx)  # x[...] is a view
    return x


def _halley(spec: GeneratorSpec, q, t, x, idx):
    # the iteration of _radial_isf_newton; writes the root for q[i] to x[idx[i]]
    sign = np.where(q > 0.5, -1.0, 1.0)  # -1 on the head branch
    target = np.where(q > 0.5, np.log1p(-q), np.log(q))
    lo, hi = np.full_like(t, _LOG_X_LO), np.full_like(t, _LOG_X_HI)
    for _ in range(100):
        if idx.size == 0:
            return
        log_sf, log_cdf, log_xf, dl = _radial_log_tails(spec, np.exp(t))
        log_p = np.where(sign < 0.0, log_cdf, log_sf)
        f = sign * (log_p - target)  # > 0 below the root
        slope = -np.exp(log_xf - log_p)
        lo, hi = np.where(f > 0.0, t, lo), np.where(f < 0.0, t, hi)
        step = f / np.minimum(slope, -_TINY)
        c = 1.0 - 0.5 * step * (dl - sign * slope)
        step = step / np.where((0.5 < c) & (c < 2.0), c, 1.0)
        t_new = t - step
        inside = (lo < t_new) & (t_new < hi)
        t_new = np.where(inside, t_new, 0.5 * (lo + hi))
        small = np.abs(f) <= 4.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(target))
        done = (
            small
            | (inside & (np.abs(step) <= _HALLEY_ACCEPT))
            | (np.abs(t_new - t) <= 1e-12)
        )
        x[idx[done]] = np.exp(np.where(small, t, t_new)[done])
        idx, sign, target, t, lo, hi = (
            a[~done] for a in (idx, sign, target, t_new, lo, hi)
        )
    raise RootFindingError(f"{spec.label()}: radial quantile did not converge")


def partition_numeric(spec: GeneratorSpec) -> float:
    """Z = 2 pi int_0^inf g(v^2) v dv by _log_integral's fixed panels, a check
    on partition_closed that shares nothing with it: within ~1e-13 relative;
    DomainError for a power tail heavier than ~v^-0.12 (logt, nu < 0.12)."""
    return 2.0 * math.pi * math.exp(
        _log_integral(lambda t: log_g(spec, np.exp(2.0 * t)) + 2.0 * t, f"{spec.label()}: Z")
    )


# ---------------------------------------------------------------------------
# the moment generating function of the standardized margin


def _tail_rate(spec: GeneratorSpec) -> float:
    # the exponential tail rate of the standardized margin: E[e^(s Z1)] is
    # finite iff s < rate; 0 for the power tails
    gid = spec.id
    if gid in _PEARSON_VII or gid is GeneratorId.SLASH:
        return 0.0
    if gid is GeneratorId.LAPLACE:
        return _SQRT2
    if gid is GeneratorId.HYPERBOLIC:
        return spec.params.nu
    return 0.5 if gid is GeneratorId.POWER_EXP and spec.params.xi == 1.0 else math.inf


_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)  # nodes and weights of one panel
_MGF_T = np.arange(-160, 1980) * (0.25 * _LOG2)  # t = log v on v = 2^(k/4), 2^-40 ... 1e149
_I0_SERIES = 1.0 / np.cumprod(np.arange(1.0, 11.0))[::-1] ** 2  # 1/((k+1)!)^2, k = 9 ... 0


def _log_i0m1_s2(log_s: float, t):
    # log((I0(x) - 1) / s^2) at x = s e^t: 2 (t - log 2) + log of the series
    # in x^2/4 below x = 1, so that no log s enters where s may be tiny, and
    # x + log(i0e(x) - e^-x) - 2 log s above, with x held finite
    x = np.minimum(np.exp(log_s + t), _X_MAX)
    head, out = x < 1.0, np.empty_like(x)
    out[head] = 2.0 * (t[head] - _LOG2) + np.log(np.polyval(_I0_SERIES, 0.25 * x[head] ** 2))
    out[~head] = x[~head] + np.log(special.i0e(x[~head]) - np.exp(-x[~head])) - 2.0 * log_s
    return out


def _log_mgf(spec: GeneratorSpec, s) -> np.ndarray | None:
    """L(s) = log E[e^(s Z1)] of the standardized margin at each s >= 0 of an
    array; None if any s > 0 is at or above _tail_rate(spec).

    s^2/2 for lognormal. Otherwise, (Z1, Z2) being spherical, E[e^(s Z1)] =
    E[I0(s R)] (Fang, Kotz & Ng 1990, ch. 2), so L = log1p(s^2 J) with J =
    (2 pi / (Z s^2)) int_0^inf (I0(s v) - 1) g(v^2) v dv, by _log_integral.
    s^2 J < 1 is formed as a product, so that L keeps its bits as s -> 0.
    """
    s = np.asarray(s, dtype=float)
    if np.any((s > 0.0) & (s >= _tail_rate(spec))):
        return None
    if spec.id is GeneratorId.LOGNORMAL:
        return 0.5 * s * s
    log_c, out = math.log(2.0 * math.pi / partition_closed(spec)), np.zeros_like(s)
    for i in np.flatnonzero(s):
        si = float(s.flat[i])
        log_s = math.log(si)

        def log_f(t):
            return _log_i0m1_s2(log_s, t) + log_g(spec, np.exp(2.0 * t)) + 2.0 * t + log_c

        log_j = _log_integral(log_f, f"{spec.label()}: E[exp({si:g} Z1)]")
        if log_j < -2.0 * log_s:
            out.flat[i] = math.log1p(si * (si * math.exp(log_j)))
        else:
            out.flat[i] = np.logaddexp(0.0, log_j + 2.0 * log_s)
    return out


def _log_integral(log_f, what: str, lo: float = -math.inf, hi: float = math.inf) -> float:
    """log int_lo^hi e^log_f(t) dt, t = log v, for a log_f that peaks once
    and decays on both sides (or stops at lo or hi); -inf only where log_f
    is -inf on every node. A scan on v = 2^(k/4), 2^-40 ... 1e149, clipped
    to [lo, hi], finds the steps within e^-40 of the peak. A step there across
    which log_f changes by more than 8 is halved, with its neighbours, until
    none is: a narrow peak (large s) or a steep edge (logpexp as xi -> -1).
    Each step is one panel of the 16-point Gauss-Legendre rule; below the
    first node t0 (v = 2^-40, or e^-40 e^hi where lower), e^f is exponential at the
    first step's slope k > 0. DomainError where k <= 0 or log_f is +inf on a
    node (the mass lies below t0) or log_f has not decayed by v = 1e149 < hi;
    IntegrationError where rounding noise in log_f (s v past ~1e13) keeps
    the steps from resolving."""
    t0 = max(lo, min(_MGF_T[0], hi - 40.0))  # so that a short segment's head is negligible
    t = np.r_[t0, _MGF_T[(_MGF_T > t0) & (_MGF_T < hi)], hi if hi < math.inf else []]
    f = log_f(t)
    if f.max() == -math.inf:
        return -math.inf
    if f.max() == math.inf:
        raise DomainError(f"{what} has its mass below the scan's reach: log_f is +inf at v = {math.exp(t0):.3g}")
    with np.errstate(invalid="ignore"):  # differences of -inf are NaN, and compare False
        for _ in range(64):
            keep = np.maximum(f[:-1], f[1:]) >= f.max() - 40.0
            if hi == math.inf and keep[-1:].all():  # also where no step is left
                raise DomainError(f"{what} needs v beyond 1e149")
            jump = keep & ~(np.abs(np.diff(f)) <= 8.0)
            split = keep & (np.convolve(jump, [1, 1, 1])[1:-1] > 0)
            if not split.any() or t.size > 2 * _MGF_T.size:
                break
            mid, at = 0.5 * (t[:-1] + t[1:])[split], np.flatnonzero(split) + 1
            t, f = np.insert(t, at, mid), np.insert(f, at, log_f(mid))
    if split.any():
        raise IntegrationError(f"{what} did not resolve")
    k = (float(f[1]) - float(f[0])) / (t[1] - t0)
    if lo < t0 and not k > 0.0:
        raise DomainError(f"{what} has its mass below v = {math.exp(t0):.3g}")
    a, q = t[:-1][keep, None], 0.5 * np.diff(t)[keep, None]  # one panel of half-width q
    fn = log_f((a + q * (1.0 + _GL_X)).ravel())
    top = fn.max()
    head = math.exp(f[0] - top) * -math.expm1(-k * (t0 - lo)) / k if lo < t0 else 0.0
    return top + math.log((q * _GL_W).ravel() @ np.exp(fn - top) + head)


def characteristic_generator(spec: GeneratorSpec, x: float) -> float | None:
    """Moment generator vartheta(x) = E[e^(sqrt(x) Z1)] = exp L(sqrt x) of
    _log_mgf, so that E[T^r] = eta^r vartheta(sigma^2 r^2).

    None where it is infinite: at x > 0 for the power tails (logt, logpvii,
    logslash), and where sqrt(x) reaches the tail rate.
    """
    if not x >= 0.0:
        raise DomainError(f"characteristic generator requires x >= 0, got {x}")
    lv = _log_mgf(spec, math.sqrt(x))
    if lv is None:
        return None
    if not lv <= _LOG_X_HI:
        raise DomainError(f"characteristic generator leaves the double range at x = {x}")
    return math.exp(lv)
