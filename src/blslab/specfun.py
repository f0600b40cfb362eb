"""The input check and the lazy module loader shared by blslab's modules.

``checked`` is the input check of the functions of a point. ``LazyModule``
imports a module on first use. The special functions themselves are
``scipy.special``'s, called straight from the ``generators`` kernels, which
state and test their own accuracy contracts. This stays a module of its own
because the benchmark's tracer (``bench/spans.py``) names it.

No blslab module imports scipy when it loads. ``scipy.special``,
``scipy.integrate`` and ``scipy.optimize`` are each reached through a
``LazyModule`` and imported by the first call that needs them, so
densities, joint CDFs, radial quantiles, sampling and fits of the families
whose generators are elementary (lognormal, logt, logpvii, loghyperbolic)
import no scipy.
"""

from __future__ import annotations

import importlib

import numpy as np

__all__ = ["checked", "LazyModule"]


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


def checked(x, msg: str, error: type[Exception], strict: bool = False):
    """x as a float when it is 0-d, else as a float array; raises
    ``error(msg)`` unless x >= 0 (x > 0 if ``strict``) everywhere, so NaN
    fails too. The input check of the blslab functions of a point."""
    if isinstance(x, (float, int)) or np.ndim(x) == 0:
        x = lo = float(x)
    else:
        x = np.asarray(x, dtype=float)
        lo = x.min(initial=np.inf)  # NaN propagates
    if not (lo > 0.0 if strict else lo >= 0.0):
        raise error(msg)
    return x
