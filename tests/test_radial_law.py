"""Closed radial law: survival function, its inverse, and the callers' contract.

The squared Mahalanobis radius X has density pi g(x) / Z. Every family has a
closed survival function S = radial_sf and an inverse radial_isf; these
property tests drive both over each family's parameter range and over tail
probabilities down to 1e-300, under a fixed derandomized hypothesis profile.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blslab import distribution as dist
from blslab import generators as gen
from blslab.distribution import BLSParams
from blslab.errors import DomainError
from blslab.generators import make_generator

PROFILE = settings(derandomize=True, database=None, deadline=None, max_examples=200)

THETA = BLSParams(1.0, 2.0, 0.5, 0.7, 0.5)


def _pos(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False)


# every family, with its extra parameters drawn across their valid ranges
SPECS = st.one_of(
    st.just(make_generator("lognormal")),
    st.builds(lambda nu: make_generator("logt", nu=nu), _pos(0.05, 100.0)),
    st.builds(
        lambda xi, th: make_generator("logpvii", xi=xi, theta=th),
        _pos(1.01, 20.0), _pos(0.1, 100.0),
    ),
    st.builds(lambda nu: make_generator("loghyperbolic", nu=nu), _pos(0.01, 1000.0)),
    st.just(make_generator("loglaplace")),
    st.builds(lambda nu: make_generator("logslash", nu=nu), _pos(1.01, 50.0)),
    st.builds(lambda xi: make_generator("logpexp", xi=xi), _pos(-0.999, 1.0)),
    st.just(make_generator("loglogistic")),
)

# tail probabilities: the edges of (0, 1] plus log-uniform values down to 1e-300
QS = st.one_of(
    st.sampled_from([1.0, 1.0 - 2.0**-53, 2.0**-53, 1e-300]),
    _pos(math.log(1e-300), 0.0).map(math.exp),
    _pos(1e-300, 1.0),
)


def _isf(spec, qs):
    """radial_isf per point; +inf where the quantile exceeds the double range."""
    out = []
    for q in qs:
        try:
            out.append(gen.radial_isf(spec, q))
        except DomainError:
            out.append(math.inf)
    return np.array(out)


@PROFILE
@given(SPECS, st.lists(QS, min_size=2, max_size=16))
def test_isf_is_non_increasing(spec, qs):
    q = np.sort(np.array(qs))
    x = _isf(spec, q)
    assert not np.any(np.isnan(x))
    # up to rounding: at adjacent floats q the computed quantiles (also
    # scipy's gammainccinv) can swap by a few ulp
    assert np.all(x[:-1] >= x[1:] * (1.0 - 1e-12))


@PROFILE
@given(SPECS, st.lists(QS, min_size=1, max_size=16))
def test_sf_inverts_isf(spec, qs):
    q = np.array(qs)
    x = _isf(spec, q)
    fin = np.isfinite(x)
    err = np.abs(gen.radial_sf(spec, x[fin]) - q[fin])
    assert np.all(err <= 1e-12)
    tail = q[fin] <= 1e-3
    assert np.all(err[tail] <= 1e-9 * q[fin][tail])


@pytest.mark.parametrize(
    "spec",
    [make_generator("logpvii", xi=1.01, theta=1.0), make_generator("logslash", nu=1.01)],
    ids=lambda s: s.label(),
)
def test_quantile_beyond_double_range_is_domain_error(spec):
    with pytest.raises(DomainError):
        gen.radial_isf(spec, 1e-15)
    with pytest.raises(DomainError):
        dist.mahalanobis_quantile(spec, 1.0 - 1e-15)
    with pytest.raises(DomainError):
        dist.sample(THETA, spec, 10**4, seed=3)
    with pytest.raises(DomainError):
        dist.joint_cdf(THETA, spec, 1.0, 2.0)


@pytest.mark.parametrize(
    "spec",
    [make_generator("loglaplace")]
    + [make_generator("logslash", nu=nu) for nu in (1.5, 4.0, 10.0)],
    ids=lambda s: s.label(),
)
def test_newton_isf_converges_on_a_large_sample(spec):
    # the squared radii that sample(theta, spec, 10**5, seed=2024) draws; an
    # unconverged Newton point would raise and fail the whole sample
    u = np.random.default_rng(2024).random((10**5, 2))[:, 0]
    x = gen.radial_isf(spec, 1.0 - u)
    assert np.all(np.isfinite(x)) and np.all(x >= 0.0)
    assert np.all(np.abs(gen.radial_sf(spec, x) - (1.0 - u)) <= 1e-12)


def test_isf_rejects_probabilities_outside_unit_interval():
    spec = make_generator("loglaplace")
    for bad in (0.0, -0.1, 1.5, math.nan):
        with pytest.raises(DomainError):
            gen.radial_isf(spec, bad)
