"""Joint density, Mahalanobis law, and normalization checks.

Frozen reference values were computed with independent oracles:
scipy.stats.multivariate_normal / multivariate_t on log coordinates for the
lognormal and logt families, and 50-digit mpmath evaluations of the defining
formulas (generator, partition constant, radial integrals) for the rest.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate, stats

from blslab import distribution as dist
from blslab.distribution import BLSParams
from blslab.errors import DomainError, RootFindingError
from blslab.generators import make_generator

LN = make_generator("lognormal")
LT4 = make_generator("logt", nu=4.0)
PVII = make_generator("logpvii", xi=5.0, theta=22.0)
HYP2 = make_generator("loghyperbolic", nu=2.0)
LAP = make_generator("loglaplace")
SL4 = make_generator("logslash", nu=4.0)
PEXP = make_generator("logpexp", xi=0.5)
LOGIS = make_generator("loglogistic")

THETA = BLSParams(1.0, 2.0, 0.5, 0.7, 0.5)


def test_params_validation():
    with pytest.raises(DomainError):
        BLSParams(0.0, 1.0, 0.5, 0.5, 0.0)
    with pytest.raises(DomainError):
        BLSParams(1.0, 1.0, -0.5, 0.5, 0.0)
    with pytest.raises(DomainError):
        BLSParams(1.0, 1.0, 0.5, 0.5, 1.0)
    with pytest.raises(DomainError):
        BLSParams(1.0, math.inf, 0.5, 0.5, 0.0)
    th = BLSParams.from_array([1.0, 2.0, 0.5, 0.7, 0.5])
    assert th == THETA
    assert np.allclose(th.as_array(), [1.0, 2.0, 0.5, 0.7, 0.5])


def _accepted(make) -> bool:
    try:
        make()
    except Exception:
        return False
    return True


def _accepted_by_numpy_rule(v, rho: bool) -> bool:
    # the rule as np.isfinite states it, with the float conversion after it
    def make():
        if not (np.isfinite(v) and (-1.0 < v < 1.0 if rho else v > 0.0)):
            raise DomainError("out of range")
        float(v)
    return _accepted(make)


@pytest.mark.parametrize("v", [
    0.5, 1, True, False, 0, -0.0, 5e-324, 1e308, math.inf, -math.inf, math.nan, -0.5,
    np.float64(0.5), np.float64(math.nan), np.float32(0.5), np.float32(math.inf),
    np.int64(1), np.uint8(1), np.bool_(True), np.float16(0.5), np.longdouble(0.5),
    np.longdouble("1e-4000"), np.array(0.5), np.array([0.5]), np.array(math.nan),
    2**64, 10**400, Fraction(1, 2), "0.5", None, [0.5], 0.5 + 0j,
])
def test_params_accept_what_the_numpy_rule_accepts(v):
    assert _accepted(lambda: BLSParams(v, 1.0, 1.0, 1.0, 0.0)) == _accepted_by_numpy_rule(v, False)
    assert _accepted(lambda: BLSParams(1.0, 1.0, 1.0, v, 0.0)) == _accepted_by_numpy_rule(v, False)
    assert _accepted(lambda: BLSParams(1.0, 1.0, 1.0, 1.0, v)) == _accepted_by_numpy_rule(v, True)


def test_joint_pdf_lognormal_unit_point():
    # f(1, 1) with eta = (1, 1), sigma = (1, 1), rho = 0 is exactly 1/(2 pi)
    th = BLSParams(1.0, 1.0, 1.0, 1.0, 0.0)
    assert dist.joint_pdf(th, LN, 1.0, 1.0) == pytest.approx(
        1.0 / (2.0 * math.pi), rel=1e-15
    )


@pytest.mark.parametrize(
    "spec, expected",
    [
        (LN, 0.13423162773162803),
        (LT4, 0.12573193885563058),
        (SL4, 0.084012990393732735),
        (LAP, 0.18549988258756473),
    ],
)
def test_joint_pdf_frozen_values(spec, expected):
    assert dist.joint_pdf(THETA, spec, 1.3, 2.6) == pytest.approx(expected, rel=1e-12)


def test_joint_log_pdf_consistency():
    t1 = np.array([0.4, 1.3, 2.0, 7.5])
    t2 = np.array([1.1, 2.6, 0.9, 3.3])
    for spec in (LN, LT4, SL4, PEXP):
        lp = dist.joint_log_pdf(THETA, spec, t1, t2)
        p = dist.joint_pdf(THETA, spec, t1, t2)
        assert np.allclose(np.exp(lp), p, rtol=1e-12)


def test_joint_pdf_rejects_nonpositive_support():
    with pytest.raises(DomainError):
        dist.joint_pdf(THETA, LN, -1.0, 2.0)
    with pytest.raises(DomainError):
        dist.joint_pdf(THETA, LN, 1.0, 0.0)


def test_joint_pdf_laplace_singular_at_median_point():
    # the Bessel-K0 generator diverges at the elliptical center
    assert math.isinf(dist.joint_pdf(THETA, LAP, THETA.eta1, THETA.eta2))


@pytest.mark.parametrize("spec", [SL4, make_generator("logt", nu=0.001)], ids=lambda s: s.label())
def test_joint_pdf_beyond_the_double_range_is_a_domain_error(spec):
    # at t1 = 5e-324 the density exceeds the doubles though its log does not
    th = BLSParams(1.0, 2.0, 0.5, 0.3, 0.4)
    assert math.log(np.finfo(float).max) < dist.joint_log_pdf(th, spec, 5e-324, 1.0) < math.inf
    with pytest.raises(DomainError, match="double range"):
        dist.joint_pdf(th, spec, 5e-324, 1.0)
    with pytest.raises(DomainError, match="double range"):
        dist.joint_pdf(th, spec, np.array([5e-324, 1.0]), np.array([1.0, 1.0]))
    assert 0.0 < dist.joint_pdf(th, spec, 1.0, 1.0) < math.inf


def test_mahalanobis_sq_matches_quadratic_form():
    z1 = (math.log(1.3) - math.log(THETA.eta1)) / THETA.sigma1
    z2 = (math.log(2.6) - math.log(THETA.eta2)) / THETA.sigma2
    direct = (z1 * z1 - 2 * THETA.rho * z1 * z2 + z2 * z2) / (1 - THETA.rho**2)
    assert dist.mahalanobis_sq(THETA, 1.3, 2.6) == pytest.approx(direct, rel=1e-13)


@pytest.mark.parametrize(
    "spec, x, expected",
    [
        (SL4, 3.7, 0.62793800576022857),
        (HYP2, 2.0, 0.6558390715498876),
        (PEXP, 1.5, 0.27332806287842442),
        (LAP, 2.0, 0.72026823636695515),
        (PVII, 6.0, 0.61888275718450646),
        (LOGIS, 1.2, 0.53704956699803529),
    ],
)
def test_mahalanobis_cdf_frozen_values(spec, x, expected):
    assert dist.mahalanobis_cdf(spec, x) == pytest.approx(expected, abs=1e-9)


def test_mahalanobis_cdf_closed_forms():
    # lognormal: chi-squared with 2 df; logt: 2 F(2, nu)
    for x in (0.3, 1.7, 6.0, 21.0):
        assert dist.mahalanobis_cdf(LN, x) == pytest.approx(
            -math.expm1(-x / 2.0), rel=1e-14
        )
        assert dist.mahalanobis_cdf(LT4, x) == pytest.approx(
            stats.f.cdf(x / 2.0, 2, 4), rel=1e-12
        )


def test_mahalanobis_pdf_integrates_to_one():
    for spec in (SL4, LAP, HYP2):
        head, _ = integrate.quad(lambda x: dist.mahalanobis_pdf(spec, x), 0, 1.0,
                                 points=[0.0], limit=200)
        tail, _ = integrate.quad(
            lambda s: dist.mahalanobis_pdf(spec, 1.0 / s) / (s * s), 1e-4, 1.0,
            limit=200,
        )
        assert head + tail == pytest.approx(1.0, abs=5e-5)


PGRID = [1e-6, 0.01, 0.3, 0.5, 0.9, 0.999, 1.0 - 1e-9]


@pytest.mark.parametrize("spec", [LN, LT4, SL4, LAP, HYP2, PEXP, LOGIS])
def test_mahalanobis_quantile_cdf_round_trip(spec):
    for p in PGRID:
        q = dist.mahalanobis_quantile(spec, p)
        assert dist.mahalanobis_cdf(spec, q) == pytest.approx(p, abs=1e-8)


def test_mahalanobis_quantile_closed_forms():
    assert dist.mahalanobis_quantile(LN, 0.75) == pytest.approx(
        -2.0 * math.log1p(-0.75), rel=1e-14
    )
    assert dist.mahalanobis_quantile(LT4, 0.75) == pytest.approx(
        2.0 * stats.f.ppf(0.75, 2, 4), rel=1e-10
    )


def test_mahalanobis_quantile_domain():
    assert dist.mahalanobis_quantile(SL4, 0.0) == 0.0
    for bad in (1.0, -0.2, 1.3):
        with pytest.raises(DomainError):
            dist.mahalanobis_quantile(SL4, bad)


def _normalization(theta, spec, ptail=1e-6):
    # total probability via panelized 2-D quadrature on standardized log scale
    R = math.sqrt(dist.mahalanobis_quantile(spec, 1.0 - ptail))
    B = max(8.0, R)
    core = [-10.0, 0.0, 10.0] if B > 14.0 else [0.0]
    edges = sorted(set([-B] + core + [B]))
    m1, m2 = math.log(theta.eta1), math.log(theta.eta2)

    def f(z2, z1):
        t1 = math.exp(m1 + theta.sigma1 * z1)
        t2 = math.exp(m2 + theta.sigma2 * z2)
        return dist.joint_pdf(theta, spec, t1, t2) * t1 * t2 * theta.sigma1 * theta.sigma2

    total = 0.0
    for i in range(len(edges) - 1):
        for j in range(len(edges) - 1):
            v, _ = integrate.dblquad(
                f, edges[i], edges[i + 1], edges[j], edges[j + 1],
                epsabs=1e-6, epsrel=1e-6,
            )
            total += v
    return total


@pytest.mark.parametrize("spec", [LT4, PEXP])
def test_joint_pdf_normalization_spot_checks(spec):
    # the full 8-family x 3-setting sweep runs in the acceptance suite
    assert _normalization(THETA, spec) == pytest.approx(1.0, abs=5e-6)
