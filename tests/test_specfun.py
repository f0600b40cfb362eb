"""The shared input check and lazy loader, and the special functions the
generator kernels take from scipy.special, against quadrature oracles."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from blslab import generators as gen
from blslab import specfun as sf
from blslab.errors import DomainError
from blslab.generators import make_generator

# frozen oracle values, computed from the defining integrals with
# scipy.integrate.quad at epsabs=1e-14 (re-derived live below as well)
GAMMA_2P5_3 = 0.9222712123078344
K0_AT_1 = 0.42102443824070834
EULER_GAMMA = 0.5772156649015328606

LAPLACE = make_generator("loglaplace")


def test_lower_incomplete_gamma_against_quadrature():
    # logslash's gamma(s, y) = int_0^y t^(s-1) e^-t dt
    live = integrate.quad(lambda t: t**1.5 * np.exp(-t), 0, 3.0, epsabs=1e-13)[0]
    mine = gen._lower_gamma(2.5, 3.0)
    assert abs(mine - GAMMA_2P5_3) < 1e-12
    assert abs(mine - live) < 1e-10


def test_lower_incomplete_gamma_saturates_to_gamma():
    for s in [0.5, 1.5, 5.0, 12.0, 33.0]:
        assert gen._lower_gamma(s, 50.0 * s) == pytest.approx(math.gamma(s), rel=1e-8)


def test_bessel_k0_defining_integral():
    # loglaplace's g(x) = K0(sqrt(2x)), and at u = 1 (x = 1/2)
    # K0(u) = 1/2 int_0^inf t^-1 exp(-t - u^2/(4t)) dt
    live = integrate.quad(
        lambda t: 0.5 * np.exp(-t - 0.25 / t) / t, 0, np.inf, epsabs=1e-13
    )[0]
    assert gen.g(LAPLACE, 0.5) == pytest.approx(K0_AT_1, rel=1e-12)
    assert gen.g(LAPLACE, 0.5) == pytest.approx(live, rel=1e-9)


def test_bessel_scaled_consistency_and_large_u():
    # K0(u) ~ sqrt(pi / (2u)) e^-u (1 - 1/(8u) + 9/(128u^2)): log g stays
    # finite at u = 800, where the unscaled K0 underflows to 0
    u = 800.0
    series = 1.0 - 1.0 / (8.0 * u) + 9.0 / (128.0 * u * u)
    expected = 0.5 * math.log(math.pi / (2.0 * u)) - u + math.log(series)
    assert gen.log_g(LAPLACE, 0.5 * u * u) == pytest.approx(expected, abs=1e-9)
    assert gen.g(LAPLACE, 0.5 * u * u) == 0.0


def test_bessel_small_u_log_divergence():
    # K0(u) ~ -log(u/2) - gamma_E as u -> 0: finite values, +inf at 0
    u = 1e-12
    assert gen.g(LAPLACE, 0.5 * u * u) == pytest.approx(
        -math.log(u / 2.0) - EULER_GAMMA, rel=1e-10
    )
    assert gen.g(LAPLACE, 0.0) == math.inf
    with pytest.raises(DomainError):
        gen.g(LAPLACE, -1.0)


def test_checked_domain():
    assert sf.checked(0.0, "x", DomainError) == 0.0
    with pytest.raises(DomainError, match="x must be positive"):
        sf.checked(0.0, "x must be positive", DomainError, strict=True)
    for bad in [-0.5, math.nan, np.array([1.0, -2.0]), np.array([1.0, np.nan])]:
        with pytest.raises(ValueError):
            sf.checked(bad, "x", ValueError)


def _checked_elementwise(x, msg, error, strict=False):
    # the elementwise rule that checked's one min() reduction stands for
    if isinstance(x, (float, int)) or np.ndim(x) == 0:
        x = float(x)
        ok = x > 0.0 if strict else x >= 0.0
    else:
        x = np.asarray(x, dtype=float)
        ok = (x > 0.0 if strict else x >= 0.0).all()
    if not ok:
        raise error(msg)
    return x


def _check_outcome(x, strict):
    # (type, identity with x, dtype, shape, bytes) of the result, or the error
    for check in (sf.checked, _checked_elementwise):
        try:
            out = check(x, "x must be >= 0", ValueError, strict)
        except ValueError as e:
            yield type(e), str(e)
        else:
            a = np.asarray(out)
            yield type(out), out is x, a.dtype, a.shape, a.tobytes()


_VALUES = st.lists(
    st.one_of(st.sampled_from([math.nan, -0.0, 0.0, -1.0, 5e-324, math.inf, -math.inf]),
              st.floats(allow_nan=True, allow_infinity=True)),
    max_size=6,
)
_FORMS = [
    lambda v: np.array(v, dtype=float),
    lambda v: np.array(v + v, dtype=float)[::2],  # a strided view
    lambda v: np.array(v + v, dtype=float).reshape(2, -1),
    lambda v: np.array(v, dtype=float)[:0],
    lambda v: np.array([int(a) if math.isfinite(a) else 0 for a in v]),
    lambda v: np.array(v, dtype=float) > 0.0,  # bool
    lambda v: np.array(v, dtype=np.float32),
    lambda v: list(v),
    lambda v: np.array(v[0] if v else -1.0),  # 0-d
    lambda v: np.float64(v[0] if v else 2.0),
    lambda v: np.float32(v[0] if v else 2.0),
    lambda v: np.int64(3 if not v or math.isfinite(v[0]) else -3),
]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_VALUES, st.sampled_from(range(len(_FORMS))), st.booleans())
def test_checked_min_is_the_elementwise_rule(values, form, strict):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # float32 of a huge float is inf
        x = _FORMS[form](values)
    got, want = _check_outcome(x, strict)
    assert got == want, (x, strict)


def test_array_scalar_round_trip():
    x = np.array([0.5, 3.0, 40.0])
    arr = sf.checked(x, "x", DomainError)
    assert arr.dtype == float and arr.shape == (3,)
    for scalar in [2, 2.0, np.float32(2.0), np.array(2.0)]:
        assert type(sf.checked(scalar, "x", DomainError)) is float
    vals = gen.g(LAPLACE, x)
    assert vals.shape == (3,)
    assert vals[1] == gen.g(LAPLACE, 3.0)
    assert isinstance(gen.g(LAPLACE, 3.0), float)


def test_lazy_module_imports_on_first_use():
    lazy = sf.LazyModule("json")
    assert "dumps" not in vars(lazy)
    assert lazy.dumps is json.dumps
    assert vars(lazy)["dumps"] is json.dumps  # bound: later lookups skip the import
    with pytest.raises(AttributeError):
        lazy.no_such_function
