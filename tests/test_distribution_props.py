"""Change-of-variable closures, factorization, joint CDF, moments.

The scale/power/reciprocal parameter maps are verified at the density level:
the mapped parameters must reproduce the original density through the
change-of-variables formula pointwise, which checks both the parameter
arithmetic and the density code in one identity.
"""

import math

import numpy as np
import pytest
from scipy import stats

from blslab import distribution as dist
from blslab import generators as gen
from blslab.distribution import BLSParams
from blslab.errors import DomainError
from blslab.generators import make_generator

LN = make_generator("lognormal")
LT4 = make_generator("logt", nu=4.0)
SL4 = make_generator("logslash", nu=4.0)
LOGIS = make_generator("loglogistic")
HYP2 = make_generator("loghyperbolic", nu=2.0)
LAP = make_generator("loglaplace")

THETA = BLSParams(1.0, 2.0, 0.5, 0.7, 0.5)
POINTS = [(0.6, 1.1), (1.3, 2.6), (2.4, 0.9)]


@pytest.mark.parametrize("spec", [LN, LT4, SL4])
def test_scale_closure_density_identity(spec):
    c1, c2 = 2.0, 3.0
    mapped = dist.transform_scale(THETA, c1, c2)
    for t1, t2 in POINTS:
        lhs = dist.joint_pdf(mapped, spec, c1 * t1, c2 * t2) * c1 * c2
        rhs = dist.joint_pdf(THETA, spec, t1, t2)
        assert lhs == pytest.approx(rhs, rel=1e-10)


@pytest.mark.parametrize("spec", [LN, SL4])
@pytest.mark.parametrize("c1, c2", [(2.0, 0.5), (2.0, -1.0), (-0.5, -2.0)])
def test_power_closure_density_identity(spec, c1, c2):
    mapped = dist.transform_power(THETA, c1, c2)
    for t1, t2 in POINTS:
        jac = abs(c1) * t1 ** (c1 - 1.0) * abs(c2) * t2 ** (c2 - 1.0)
        lhs = dist.joint_pdf(mapped, spec, t1**c1, t2**c2) * jac
        rhs = dist.joint_pdf(THETA, spec, t1, t2)
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_power_parameter_map():
    mapped = dist.transform_power(THETA, 2.0, -1.0)
    assert mapped == BLSParams(1.0, 0.5, 1.0, 0.7, -0.5)
    with pytest.raises(DomainError):
        dist.transform_power(THETA, 0.0, 1.0)
    with pytest.raises(DomainError):
        dist.transform_scale(THETA, -2.0, 1.0)


@pytest.mark.parametrize("spec", [LN, LT4])
def test_reciprocal_standardized_density_identity(spec):
    # U_i = eta_i / T_i keeps (sigma1, sigma2, rho) with unit medians, so
    # f_U(u1, u2) = f_T(eta1/u1, eta2/u2) * (eta1/u1^2) * (eta2/u2^2)
    mapped = dist.reciprocal_standardized(THETA)
    assert mapped == BLSParams(1.0, 1.0, 0.5, 0.7, 0.5)
    for u1, u2 in POINTS:
        lhs = dist.joint_pdf(mapped, spec, u1, u2)
        rhs = (
            dist.joint_pdf(THETA, spec, THETA.eta1 / u1, THETA.eta2 / u2)
            * (THETA.eta1 / u1**2)
            * (THETA.eta2 / u2**2)
        )
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_lognormal_rho_zero_factorizes():
    th = BLSParams(1.0, 2.0, 0.5, 0.7, 0.0)
    m1 = stats.lognorm(s=0.5, scale=1.0)
    m2 = stats.lognorm(s=0.7, scale=2.0)
    for t1, t2 in POINTS:
        assert dist.joint_pdf(th, LN, t1, t2) == pytest.approx(
            m1.pdf(t1) * m2.pdf(t2), rel=1e-12
        )
        assert dist.joint_cdf(th, LN, t1, t2) == pytest.approx(
            m1.cdf(t1) * m2.cdf(t2), abs=1e-8
        )


@pytest.mark.parametrize(
    "spec, expected, tol",
    [
        (LT4, 0.5104858358, 2e-7),
        (SL4, 0.474550342123, 1e-6),
    ],
)
def test_joint_cdf_frozen_values(spec, expected, tol):
    # references from scipy.stats.multivariate_t.cdf on log coordinates and
    # from the normal scale-mixture identity integrated over the mixing law
    assert dist.joint_cdf(THETA, spec, 1.3, 2.6) == pytest.approx(expected, abs=tol)


def test_joint_cdf_limits():
    # the logt(4) upper tail is polynomial, P(T > t) ~ 3 (log t / sigma)^-4,
    # so the argument must be genuinely huge before the CDF is 1 within 1e-6
    assert dist.joint_cdf(THETA, LT4, 1e17, 1e17) == pytest.approx(1.0, abs=1e-6)
    assert dist.joint_cdf(THETA, LT4, 1e-40, 1.0) == pytest.approx(0.0, abs=1e-8)
    with pytest.raises(DomainError):
        dist.joint_cdf(THETA, LN, 0.0, 1.0)


def test_joint_cdf_monotone():
    vals = [dist.joint_cdf(THETA, LN, t, 2.0) for t in (0.5, 1.0, 2.0, 4.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


# standardized points (a, b): near the origin, the far corners, and wedges
# whose apex lies 1e-9 off the z2 axis and off the z1 axis (rho = 0.4)
EDGE_Z = [
    (0.5, 0.25), (-0.5, -0.1), (1.0, 0.8), (0.0, -0.7), (1e-8, 1e-8),
    (-1e-8, -1e-8), (0.0, 0.0), (6.0, 6.0), (-6.0, -6.0), (6.0, -6.0),
    (-6.0, 6.0), (1e-9, 3.0), (2.0, 0.8 + 1e-9 * math.sqrt(0.84)),
]


def test_joint_cdf_lognormal_matches_bivariate_normal_at_edge_points():
    rho = 0.4
    th = BLSParams(1.0, 1.0, 1.0, 1.0, rho)
    mvn = stats.multivariate_normal(
        mean=[0.0, 0.0], cov=[[1.0, rho], [rho, 1.0]], abseps=1e-14, releps=1e-14
    )
    for z1, z2 in EDGE_Z:
        t1, t2 = math.exp(z1), math.exp(z2)
        ref = mvn.cdf(dist.standardize(th, t1, t2))
        assert abs(dist.joint_cdf(th, LN, t1, t2) - ref) <= 1e-12


@pytest.mark.parametrize(
    "z1, z2, rho, rel",
    [(-8.0, -8.0, 0.4, 1e-12), (-10.0, -2.0, 0.4, 1e-12), (-20.0, -20.0, 0.4, 1e-11),
     (-20.0, 5.0, -0.9, 1e-10), (-12.0, 3.0, -0.95, 1e-10), (-10.0, 5.0, -0.9, 1e-10)],
)
def test_joint_cdf_lognormal_is_relative_in_the_lower_left_tail(z1, z2, rho, rel):
    # int_-inf^a phi(x) Phi((b - rho x) / c) dx over x = a - u, scaled by its
    # value at u = 0 so that mpmath's absolute stop is a relative one. The
    # first two were 9.1e-12 and 8.2e-8 off with tail breaks fixed at
    # 2^-1 ... 2^-40; the last four, 3.1e-5, 0.11, 0.22 and 1.6e-5 off with
    # the breaks anchored at max(0, -min d), short of the wedge's apex or foot
    import mpmath as mp

    th = BLSParams(1.0, 1.0, 1.0, 1.0, rho)
    t1, t2 = math.exp(z1), math.exp(z2)
    a, b = dist.standardize(th, t1, t2)

    def f(u):
        return mp.npdf(a - u) * mp.ncdf((b - rho * (a - u)) / mp.sqrt(1 - mp.mpf(rho) ** 2))

    with mp.workdps(40):
        want = f(0) * mp.quad(lambda u: f(u) / f(0), [0, 0.1, 1, 10, mp.inf])
    assert dist.joint_cdf(th, LN, t1, t2) == pytest.approx(float(want), rel=rel, abs=0.0)


@pytest.mark.parametrize("nu", [1.0, 4.0])
def test_joint_cdf_logt_matches_multivariate_t(nu):
    # the standardized logt pair is bivariate t; at nu = 1 the radial tail is
    # so heavy that any truncation box misses mass. scipy's randomized rule
    # with 10^6 points is within 1e-7 at these points.
    th = BLSParams(1.0, 2.0, 0.5, 0.3, 0.4)
    mvt = stats.multivariate_t(loc=[0.0, 0.0], shape=[[1.0, 0.4], [0.4, 1.0]], df=nu)
    spec = make_generator("logt", nu=nu)
    for z1, z2 in [(0.5, 0.25), (-0.5, -0.1), (1.0, 0.8), (0.0, -0.7)]:
        t1 = th.eta1 * math.exp(th.sigma1 * z1)
        t2 = th.eta2 * math.exp(th.sigma2 * z2)
        ref = mvt.cdf(dist.standardize(th, t1, t2), maxpts=10**6, random_state=1)
        assert abs(dist.joint_cdf(th, spec, t1, t2) - ref) <= 1e-6


@pytest.mark.parametrize("xi", [1.01, 3.0, 8.0])
@pytest.mark.parametrize("theta", [0.3, 1.0, 10.0])
def test_logpvii_is_logt_at_rescaled_sigma(xi, theta):
    # (1 + x/theta)^-xi = (1 + x'/nu)^(-(nu+2)/2) with nu = 2 xi - 2 and
    # x' = x nu / theta: logpvii(xi, theta) at (eta, sigma, rho) is logt(nu)
    # at (eta, c sigma, rho) with c = sqrt(theta / nu)
    nu = 2.0 * xi - 2.0
    c = math.sqrt(theta / nu)
    th = BLSParams(1.0, 2.0, 0.5, 0.3, 0.4)
    scaled = BLSParams(th.eta1, th.eta2, c * th.sigma1, c * th.sigma2, th.rho)
    pvii = make_generator("logpvii", xi=xi, theta=theta)
    lt = make_generator("logt", nu=nu)
    for t1, t2 in POINTS + [(1.0, 2.0), (0.05, 30.0)]:
        lp, lq = dist.joint_log_pdf(th, pvii, t1, t2), dist.joint_log_pdf(scaled, lt, t1, t2)
        assert abs(lp - lq) <= 1e-13
        cp, cq = dist.joint_cdf(th, pvii, t1, t2), dist.joint_cdf(scaled, lt, t1, t2)
        assert abs(cp - cq) <= 1e-13


EIGHT = [
    LN,
    LT4,
    make_generator("logpvii", xi=5.0, theta=22.0),
    HYP2,
    make_generator("loglaplace"),
    SL4,
    make_generator("logpexp", xi=0.5),
    LOGIS,
]


@pytest.mark.parametrize("rho", [-0.95, 0.0, 0.4, 0.99])
def test_joint_cdf_orthant_identity(rho):
    # at the medians every elliptical law gives 1/4 + asin(rho)/(2 pi)
    th = BLSParams(1.0, 2.0, 0.5, 0.7, rho)
    orthant = 0.25 + math.asin(rho) / (2.0 * math.pi)
    for spec in EIGHT:
        assert abs(dist.joint_cdf(th, spec, 1.0, 2.0) - orthant) <= 1e-14


# ---------------------------------------------------------------------------
# moments and correlation


def test_moment_lognormal_closed():
    th = BLSParams(1.0, 1.0, 0.5, 0.5, 0.0)
    assert dist.moment(th, LN, 1, 2) == pytest.approx(math.exp(0.5), rel=1e-14)
    assert dist.moment(th, LN, 2, 1) == pytest.approx(math.exp(0.125), rel=1e-14)


def test_moment_requires_characteristic_generator():
    assert dist.moment(THETA, LT4, 1, 1) is None
    assert dist.moment(THETA, SL4, 1, 2) is None


def test_moment_validation():
    with pytest.raises(DomainError):
        dist.moment(THETA, LN, 3, 1)
    with pytest.raises(DomainError):
        dist.moment(THETA, LN, 1, 0)


def test_moment_outside_the_double_range_is_a_domain_error():
    # vartheta = exp(sigma^2 order^2 / 2) overflows
    with pytest.raises(DomainError, match="double range"):
        dist.moment(THETA, LN, 1, 1e10)
    with pytest.raises(DomainError, match="double range"):
        gen.characteristic_generator(LN, 1e10)
    # eta^order overflows while vartheta = exp(200) does not
    big_eta = BLSParams(1e10, 2.0, 0.5, 0.7, 0.5)
    with pytest.raises(DomainError, match="double range"):
        dist.moment(big_eta, LN, 1, 40)
    # the product overflows though both factors are finite
    with pytest.raises(DomainError, match="double range"):
        dist.moment(BLSParams(1e10, 2.0, 1.0, 0.7, 0.5), LN, 1, 30)
    assert dist.moment(big_eta, LN, 1, 20) == pytest.approx(1e200 * math.exp(50.0), rel=1e-12)


def test_moment_formed_in_logs():
    # vartheta(1444) = e^722 overflows, but eta^76 = 1e-228 brings the
    # moment back to e^197.01
    th = BLSParams(1e-3, 1.0, 0.5, 0.5, 0.0)
    want = math.exp(722.0 + 76.0 * math.log(1e-3))
    assert dist.moment(th, LN, 1, 76) == pytest.approx(want, rel=1e-13)
    # the moment itself beyond the doubles: e^(722 + 76 log 10) = e^897
    with pytest.raises(DomainError, match="double range"):
        dist.moment(BLSParams(10.0, 1.0, 0.5, 0.5, 0.0), LN, 1, 76)


def test_moment_exact_for_loglaplace():
    # the loglaplace margin is Laplace(0, 1/sqrt 2): E[T^r] = eta^r / (1 - sigma^2 r^2 / 2)
    for order in (0.5, 1.0, 2.0, 2.8):
        want = 2.0**order / (1.0 - 0.5 * (0.5 * order) ** 2)
        assert dist.moment(BLSParams(2.0, 1.0, 0.5, 0.7, 0.5), LAP, 1, order) == pytest.approx(want, rel=1e-12)
    assert dist.moment(BLSParams(2.0, 1.0, 0.5, 0.7, 0.5), LAP, 1, 2.9) is None  # 1.45 > sqrt 2


def test_correlation_lognormal_closed():
    th = BLSParams(1.0, 1.0, 0.5, 0.5, 0.5)
    assert dist.correlation(th, LN) == pytest.approx(
        math.expm1(0.125) / math.expm1(0.25), rel=1e-14
    )


def test_correlation_loglaplace_exact():
    # M(s) = 1 / (1 - s^2/2): with sigma = 0.5 and rho = 0.5 the correlation is
    # (1.6 - 64/49) / (2 - 64/49) = 36/85
    th = BLSParams(1.0, 3.0, 0.5, 0.5, 0.5)
    assert dist.correlation(th, LAP) == pytest.approx(36.0 / 85.0, rel=1e-12)


def test_correlation_none_for_power_tails():
    assert dist.correlation(THETA, LT4) is None
    assert dist.correlation(THETA, SL4) is None


def test_correlation_none_when_tail_rate_too_small():
    # hyperbolic second moments need 2 max(sigma) < nu
    assert dist.correlation(BLSParams(1, 1, 1.2, 1.2, 0.5), HYP2) is None


def test_correlation_monte_carlo_logistic():
    # the exact value lies within 3 batch standard errors of the correlation
    # of 10^6 draws (10 batches), and a repeat call gives the same bits
    th = BLSParams(1.0, 1.0, 0.4, 0.4, 0.6)
    exact = dist.correlation(th, LOGIS)
    assert dist.correlation(th, LOGIS) == exact
    assert 0.35 < exact < 0.75
    draws = dist.sample(th, LOGIS, 10**6, seed=3)
    batches = [np.corrcoef(b[:, 0], b[:, 1])[0, 1] for b in draws.reshape(10, -1, 2)]
    se = np.std(batches, ddof=1) / math.sqrt(10)
    assert abs(np.corrcoef(draws[:, 0], draws[:, 1])[0, 1] - exact) <= 3.0 * se


def _lognormal_correlation(s1, s2, rho):
    # expm1(rho s1 s2) / sqrt(expm1(s1^2) expm1(s2^2)) in 40 digits
    import mpmath as mp

    with mp.workdps(40):
        s1, s2 = mp.mpf(s1), mp.mpf(s2)
        return float(mp.expm1(rho * s1 * s2) / mp.sqrt(mp.expm1(s1 * s1) * mp.expm1(s2 * s2)))


@pytest.mark.parametrize(
    "s1,s2,rho",
    [(27.0, 27.0, 0.5), (30.0, 0.1, 0.5), (1e-100, 1e-100, 0.5), (20.0, 20.0, 0.9), (20.0, 20.0, -0.9)],
)
def test_correlation_far_from_unit_scales(s1, s2, rho):
    # past the doubles for expm1(sigma^2), and below them for its product
    got = dist.correlation(BLSParams(1.0, 1.0, s1, s2, rho), LN)
    assert got == pytest.approx(_lognormal_correlation(s1, s2, rho), rel=1e-12)


def test_correlation_where_sigma_squared_underflows_is_a_domain_error():
    with pytest.raises(DomainError, match="variance of T"):
        dist.correlation(BLSParams(1.0, 1.0, 1e-170, 1.0, 0.5), LN)
    with pytest.raises(DomainError, match="variance of T"):
        dist.correlation(BLSParams(1.0, 1.0, 1e-200, 1e-200, 0.5), LAP)
