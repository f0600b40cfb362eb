"""Special functions used by the generators and the radial laws.

Thin validated wrappers over ``scipy.special`` and ``math.lgamma``: log-gamma,
the lower incomplete gamma function, modified Bessel functions K0/K1 (plain
and exponentially scaled), and the reference CDFs (standard normal,
Student-t, F) used as fast paths and oracles for the radial laws. Each
function raises ``ValueError`` outside its domain (NaN included), accepts
+inf, and returns a ``float`` for scalar input (the CDFs take scalars only).
``checked`` is that input check, shared with ``generators`` and
``distribution``: a 0-d input stays a float, with one comparison.

Accuracy contracts, enforced by tests/test_specfun.py
-----------------------------------------------------
* ``lower_incomplete_gamma``: relative error <= 1e-12 on s in (0, 50],
  x in [0, 200].
* ``bessel_k0``/``bessel_k1`` and the scaled forms: relative error <= 1e-10
  for u in (0, 700].
* CDFs: absolute error <= 1e-10.

No blslab module imports scipy when it loads. ``scipy.special`` (here and in
``generators``), ``scipy.integrate`` and ``scipy.optimize`` are each reached
through a ``LazyModule`` and imported by the first call that needs them, so
densities, joint CDFs, radial quantiles, sampling and fits of the families
whose generators are elementary (lognormal, logt, logpvii, loghyperbolic)
import no scipy.
"""

from __future__ import annotations

import importlib
import math

import numpy as np

__all__ = [
    "ln_gamma",
    "lower_incomplete_gamma",
    "bessel_k0",
    "bessel_k1",
    "bessel_k0e",
    "bessel_k1e",
    "std_normal_cdf",
    "student_t_cdf",
    "f_cdf",
]


class LazyModule:
    """A module imported on first attribute access.

    The first access to an attribute imports the module through
    ``importlib.import_module`` and binds the attribute on this object, so
    later accesses are plain attribute lookups. The per-module import lock
    makes a first use from several threads safe (Python 3.11's
    ``importlib.util.LazyLoader`` is not): every thread gets the fully
    initialized module, and each binds the same object.
    """

    def __init__(self, name: str):
        self._name = name

    def __getattr__(self, attr):
        value = getattr(importlib.import_module(self._name), attr)
        setattr(self, attr, value)
        return value


special = LazyModule("scipy.special")


def checked(x, msg: str, error=ValueError, strict: bool = False):
    """x as a float when it is 0-d, else as a float array; raises
    ``error(msg)`` unless x >= 0 (x > 0 if ``strict``) everywhere, so NaN
    fails too. The input check of the blslab functions of a point."""
    if isinstance(x, (float, int)) or np.ndim(x) == 0:
        x = float(x)
        ok = x > 0.0 if strict else x >= 0.0
    else:
        x = np.asarray(x, dtype=float)
        ok = (x > 0.0 if strict else x >= 0.0).all()
    if not ok:
        raise error(msg)
    return x


def _like(x, out):
    # float for a float argument, array otherwise
    return float(out) if isinstance(x, float) else out


def ln_gamma(x: float) -> float:
    """log Gamma(x) for x > 0."""
    if not x > 0.0:
        raise ValueError(f"ln_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def lower_incomplete_gamma(s: float, x):
    """Unregularized lower incomplete gamma gamma(s, x) = int_0^x t^(s-1) e^-t dt.

    ``s`` is a positive scalar; ``x`` may be a nonnegative scalar or array.
    """
    if not s > 0.0:
        raise ValueError(f"lower_incomplete_gamma requires s > 0, got {s}")
    x = checked(x, "lower_incomplete_gamma requires x >= 0")
    return _like(x, special.gammainc(s, x) * special.gamma(s))


def _bessel(fn, u):
    u = checked(u, "bessel_k requires u > 0", strict=True)
    return _like(u, fn(u))


def bessel_k0(u):
    """Modified Bessel function of the second kind K0(u), u > 0."""
    return _bessel(special.k0, u)


def bessel_k1(u):
    """Modified Bessel function of the second kind K1(u), u > 0."""
    return _bessel(special.k1, u)


def bessel_k0e(u):
    """Exponentially scaled K0: exp(u) * K0(u).  Stable for large u."""
    return _bessel(special.k0e, u)


def bessel_k1e(u):
    """Exponentially scaled K1: exp(u) * K1(u)."""
    return _bessel(special.k1e, u)


def std_normal_cdf(x: float) -> float:
    """Standard normal CDF."""
    return float(special.ndtr(float(x)))


def student_t_cdf(x: float, nu: float) -> float:
    """CDF of Student's t with nu > 0 degrees of freedom."""
    if not nu > 0.0:
        raise ValueError(f"student_t_cdf requires nu > 0, got {nu}")
    return float(special.stdtr(nu, float(x)))


def f_cdf(x: float, d1: float, d2: float) -> float:
    """CDF of the F distribution with (d1, d2) degrees of freedom, x >= 0."""
    if not (d1 > 0.0 and d2 > 0.0):
        raise ValueError("f_cdf requires d1 > 0 and d2 > 0")
    x = float(x)
    if x < 0.0:
        raise ValueError(f"f_cdf requires x >= 0, got {x}")
    return float(special.fdtr(d1, d2, x))
