"""The API contract, executable: every public call gives an in-range result
or raises a BlsError, and never a RuntimeWarning (an error under the suite's
filter), for valid and hostile inputs alike.

This first slice drives the density entry points of a point (log_g, g,
mahalanobis_pdf, mahalanobis_sq, joint_log_pdf, joint_pdf and
conditional_pdf_t2_given_t1), as floats and as arrays, over every family's
_PARAM_RULES range, under a fixed derandomized hypothesis profile. The
arguments: 0, the smallest subnormal, the top of the doubles, +inf, NaN,
negative values and log-uniform values between.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_generators import ACCEPTED_SPECS

from blslab import distribution as dist
from blslab import generators as gen
from blslab.distribution import BLSParams
from blslab.errors import BlsError
from blslab.generators import GeneratorId, make_generator

_X_MAX = float(np.finfo(float).max)
_HOSTILE = [0.0, 5e-324, 1e308, _X_MAX, math.inf, math.nan, -1.0, -0.0, -math.inf]
POINTS = st.one_of(
    st.sampled_from(_HOSTILE),
    st.floats(math.log(5e-324), math.log(1e308)).map(math.exp),
)


def _outcome(call):
    # call()'s value as an array, or None for a BlsError; a RuntimeWarning fails
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            return np.asarray(call())
        except BlsError:
            return None


def _in_range(v, lo, may_be_inf) -> bool:
    # lo <= v < inf elementwise (NaN fails), +inf where may_be_inf holds
    return bool(np.all((v >= lo) & ((v < math.inf) | may_be_inf)))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(ACCEPTED_SPECS, POINTS, POINTS, st.sampled_from([0.0, 0.4, -0.9]),
       st.sampled_from([float, np.float64]))
# the quadratic form once met 0 * inf at rho = 0 and inf - inf at t1 = t2 = inf,
# in Python floats and in the numpy scalars that default_starts puts in theta
@example(make_generator("logt", nu=4.0), 1.0, math.inf, 0.0, float)
@example(make_generator("loglaplace"), math.inf, math.inf, 0.4, float)
@example(make_generator("logslash", nu=4.0), math.inf, math.inf, 0.4, np.float64)
@example(make_generator("logslash", nu=4.0), 1.0, math.inf, 0.0, np.float64)
def test_density_entry_points_give_an_in_range_value_or_a_bls_error(spec, a, b, rho, num):
    # log g is +inf, and so g and the densities, only at loglaplace's centre;
    # the form is +inf where t1 or t2 is, so the density is 0 there
    laplace = spec.id is GeneratorId.LAPLACE
    theta = BLSParams(*map(num, (1.0, 2.0, 0.5, 0.3, rho)))
    valid_x, valid_t = a >= 0.0, a > 0.0 and b > 0.0  # False at NaN
    for kind in (float, lambda v: np.array([v, 1.0])):
        x, t1, t2 = kind(a), kind(a), kind(b)
        for fn, lo in ((gen.log_g, -math.inf), (gen.g, 0.0), (dist.mahalanobis_pdf, 0.0)):
            got = _outcome(lambda: fn(spec, x))
            assert (got is not None) == valid_x, (fn.__name__, a)
            if valid_x:
                assert _in_range(got, lo, laplace & (np.asarray(x) == 0.0)), (fn.__name__, a, got)
        xq = _outcome(lambda: dist.mahalanobis_sq(theta, t1, t2))
        assert (xq is not None) == valid_t, (a, b)
        if not valid_t:
            for fn in (dist.joint_log_pdf, dist.joint_pdf):
                assert _outcome(lambda: fn(theta, spec, t1, t2)) is None, (fn.__name__, a, b)
            continue
        far = (np.asarray(t1) == math.inf) | (np.asarray(t2) == math.inf)
        assert _in_range(xq, 0.0, far) and np.all((xq == math.inf) == far), (a, b, xq)
        centre = laplace & (xq == 0.0)
        log_f = _outcome(lambda: dist.joint_log_pdf(theta, spec, t1, t2))
        assert _in_range(log_f, -math.inf, centre) and np.all(log_f[far] == -math.inf), (a, b, log_f)
        f = _outcome(lambda: dist.joint_pdf(theta, spec, t1, t2))
        # a DomainError only where a finite density exceeds the doubles
        assert f is not None or np.any((gen._LOG_X_HI < log_f) & (log_f < math.inf)), (a, b)
        assert f is None or (_in_range(f, 0.0, centre) and np.all(f[far] == 0.0)), (a, b, f)
    # the conditional takes a point, so its array is 0-d
    centre = laplace and valid_t and dist.mahalanobis_sq(theta, a, b) == 0.0
    for kind in (float, np.array):
        cond = _outcome(lambda: dist.conditional_pdf_t2_given_t1(theta, spec, kind(a), kind(b)))
        if not valid_t:
            assert cond is None, (a, b)
        elif cond is not None:  # a ZeroProbabilityError where the T1 margin vanishes
            assert _in_range(cond, 0.0, centre) and (b < math.inf or cond == 0.0), (a, b, cond)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(ACCEPTED_SPECS, POINTS, POINTS, st.sampled_from([0.0, 0.4, -0.9]))
# (log 2 - log 1) / 1e-310 overflowed numpy's scalar divide
@example(make_generator("lognormal"), 2.0, 1.0, 0.4)
@example(make_generator("logslash", nu=4.0), 0.5, 1.0, 0.4)
def test_a_subnormal_sigma_sends_z_to_infinity_quietly(spec, a, b, rho):
    # sigma1 = 1e-310 passes BLSParams; z1 = log(t1) / sigma1 is +-inf
    # wherever it leaves the doubles, and the calls of a point stay in range
    theta = BLSParams(1.0, 2.0, 1e-310, 0.3, rho)
    valid_t = a > 0.0 and b > 0.0  # False at NaN
    laplace = spec.id is GeneratorId.LAPLACE
    for kind in (float, lambda v: np.array([v, 1.0])):
        t1, t2 = kind(a), kind(b)
        z = _outcome(lambda: np.array(dist.standardize(theta, t1, t2)))
        assert (z is not None) == valid_t, (a, b)
        if not valid_t:
            continue
        assert not np.isnan(z).any(), (a, b, z)
        xq = _outcome(lambda: dist.mahalanobis_sq(theta, t1, t2))
        assert _in_range(xq, 0.0, True), (a, b, xq)
        log_f = _outcome(lambda: dist.joint_log_pdf(theta, spec, t1, t2))
        assert _in_range(log_f, -math.inf, laplace & (xq == 0.0)), (a, b, log_f)
        f = _outcome(lambda: dist.joint_pdf(theta, spec, t1, t2))
        assert f is not None or np.any((gen._LOG_X_HI < log_f) & (log_f < math.inf)), (a, b)
    if valid_t:
        cdf = _outcome(lambda: dist.joint_cdf(theta, spec, a, b))
        assert cdf is None or 0.0 <= cdf <= 1.0, (a, b, cdf)


def test_a_subnormal_sigma_takes_the_margin_at_infinite_z():
    # z1 = +inf leaves P(T2 <= t2), and z1 = -inf leaves 0
    theta = BLSParams(1.0, 2.0, 1e-310, 0.3, 0.4)
    lognormal = make_generator("lognormal")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert dist.standardize(theta, 2.0, 1.0)[0] == math.inf
        assert dist.mahalanobis_sq(theta, 2.0, 1.0) == math.inf
        assert dist.joint_log_pdf(theta, lognormal, np.array([2.0]), 1.0)[0] == -math.inf
        top = dist.joint_cdf(theta, lognormal, 2.0, 1.0)
        assert dist.joint_cdf(theta, lognormal, 0.5, 1.0) == 0.0
    assert top == pytest.approx(0.5 * math.erfc(math.log(2.0) / 0.3 / math.sqrt(2.0)), abs=1e-14)
