"""Marginal and conditional laws against closed corollaries and quadrature.

The lognormal and logt conditional fast paths have textbook closed forms
(lognormal regression, scaled Student-t with nu + 1 degrees of freedom) that
scipy evaluates independently; the generic path is compared against direct
quadrature ratios of the joint density.
"""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from blslab import distribution as dist
from blslab.distribution import BLSParams
from blslab.errors import DomainError, ZeroProbabilityError
from blslab.generators import make_generator

LN = make_generator("lognormal")
LT4 = make_generator("logt", nu=4.0)
SL4 = make_generator("logslash", nu=4.0)

THETA = BLSParams(1.0, 2.0, 0.5, 0.7, 0.5)


# ---------------------------------------------------------------------------
# marginal law of a standardized component


def test_marginal_pdf_lognormal():
    assert dist.marginal_pdf_z(LN, 0.0) == pytest.approx(
        1.0 / math.sqrt(2.0 * math.pi), rel=1e-10
    )
    for z in (-2.0, -0.3, 1.1, 3.0):
        assert dist.marginal_pdf_z(LN, z) == pytest.approx(
            stats.norm.pdf(z), rel=1e-9
        )
        assert dist.marginal_cdf_z(LN, z) == pytest.approx(
            stats.norm.cdf(z), abs=1e-9
        )


def test_marginal_logt_is_student_t():
    for z in (-3.0, -0.7, 0.0, 0.9, 2.5):
        assert dist.marginal_pdf_z(LT4, z) == pytest.approx(
            stats.t.pdf(z, 4), rel=1e-10
        )
        assert dist.marginal_cdf_z(LT4, z) == pytest.approx(
            stats.t.cdf(z, 4), abs=1e-9
        )


def test_marginal_slash_center_value():
    # normal-mixture identity: the standardized margin is a classic slash with
    # q = nu - 1, whose density at 0 is q/(q+1) * phi(0) = 3/(4 sqrt(2 pi))
    assert dist.marginal_pdf_z(SL4, 0.0) == pytest.approx(
        3.0 / (4.0 * math.sqrt(2.0 * math.pi)), rel=1e-9
    )


def test_marginal_slash_integrates_to_one():
    half, _ = integrate.quad(lambda z: dist.marginal_pdf_z(SL4, z), 0.0, 60.0,
                             limit=200)
    assert 2.0 * half == pytest.approx(1.0, abs=2e-5)


def test_marginal_quantile_lognormal_closed():
    th = BLSParams(1.0, 1.0, 0.5, 0.5, 0.0)
    assert dist.marginal_quantile(th, LN, 1, 0.975) == pytest.approx(
        math.exp(0.5 * 1.959963984540054), rel=1e-10
    )
    assert dist.marginal_quantile(th, LN, 1, 0.5) == 1.0


def test_marginal_quantile_round_trip_slash():
    th = BLSParams(2.0, 3.0, 0.4, 0.6, 0.2)
    for p in (0.05, 0.5, 0.9):
        q = dist.marginal_quantile(th, SL4, 2, p)
        z = (math.log(q) - math.log(th.eta2)) / th.sigma2
        assert dist.marginal_cdf_z(SL4, z) == pytest.approx(p, abs=1e-8)


def test_marginal_quantile_domain():
    with pytest.raises(DomainError):
        dist.marginal_quantile(THETA, LN, 3, 0.5)
    with pytest.raises(DomainError):
        dist.marginal_quantile(THETA, LN, 1, 1.0)


SMALL_Z = [1e-7, -1e-7, 1e-4, -1e-4, 0.01, -0.01]
EIGHT = [
    LN,
    LT4,
    make_generator("logpvii", xi=5.0, theta=22.0),
    make_generator("loghyperbolic", nu=2.0),
    make_generator("loglaplace"),
    SL4,
    make_generator("logpexp", xi=0.5),
    make_generator("loglogistic"),
]


def test_marginal_cdf_near_zero_matches_closed_margins():
    for z in SMALL_Z:
        assert abs(dist.marginal_cdf_z(LN, z) - stats.norm.cdf(z)) <= 1e-12
        assert abs(dist.marginal_cdf_z(LT4, z) - stats.t.cdf(z, 4)) <= 1e-12
    assert dist.marginal_pdf_z(LN, 1e-6) == pytest.approx(stats.norm.pdf(1e-6), rel=1e-10)
    assert dist.marginal_pdf_z(LT4, 1e-6) == pytest.approx(stats.t.pdf(1e-6, 4), rel=1e-10)


@pytest.mark.parametrize("spec", EIGHT, ids=lambda s: s.label())
def test_marginal_laws_near_zero(spec):
    cdf = [dist.marginal_cdf_z(spec, z) for z in SMALL_Z]
    assert all(0.0 < c < 1.0 for c in cdf)
    assert all(c > 0.5 for c in cdf[0::2]) and all(c < 0.5 for c in cdf[1::2])
    assert dist.marginal_pdf_z(spec, 1e-6) > 0.0
    t1 = THETA.eta1 * math.exp(THETA.sigma1 * 1e-6)
    assert dist.conditional_pdf_t2_given_t1(THETA, spec, t1, 2.0) > 0.0


def test_marginal_cdf_rejects_a_square_beyond_double_range():
    for z in (1e200, -1e200, math.nan):
        with pytest.raises(DomainError):
            dist.marginal_cdf_z(LN, z)


@pytest.mark.parametrize("spec", [LN, SL4], ids=lambda s: s.label())
def test_marginal_quantile_just_above_the_median(spec):
    q = dist.marginal_quantile(THETA, spec, 1, 0.501)
    z = (math.log(q) - math.log(THETA.eta1)) / THETA.sigma1
    assert z > 0.0
    assert dist.marginal_cdf_z(spec, z) == pytest.approx(0.501, abs=1e-9)


# ---------------------------------------------------------------------------
# conditional density of T2 given T1 = t1


def test_conditional_t2_given_t1_lognormal_regression():
    # T2 | T1 = t1 is lognormal with log-mean shifted by rho sigma2/sigma1
    for t1 in (0.6, 1.0, 2.4):
        mu = math.log(THETA.eta2) + THETA.rho * THETA.sigma2 / THETA.sigma1 * (
            math.log(t1) - math.log(THETA.eta1)
        )
        sd = THETA.sigma2 * math.sqrt(1.0 - THETA.rho**2)
        ref = stats.lognorm(s=sd, scale=math.exp(mu))
        for t2 in (1.0, 2.0, 4.2):
            assert dist.conditional_pdf_t2_given_t1(
                THETA, LN, t1, t2
            ) == pytest.approx(ref.pdf(t2), rel=1e-12)


def test_conditional_t2_given_t1_logt_scaled_student():
    # z2 | z1 is Student-t(nu + 1) scaled by sqrt((1-rho^2)(nu+z1^2)/(nu+1))
    nu = 4.0
    for t1, t2 in [(0.8, 1.5), (1.3, 2.6), (2.0, 1.1)]:
        z1 = (math.log(t1) - math.log(THETA.eta1)) / THETA.sigma1
        z2 = (math.log(t2) - math.log(THETA.eta2)) / THETA.sigma2
        s = math.sqrt((1.0 - THETA.rho**2) * (nu + z1 * z1) / (nu + 1.0))
        ref = stats.t.pdf((z2 - THETA.rho * z1) / s, nu + 1) / (
            s * THETA.sigma2 * t2
        )
        assert dist.conditional_pdf_t2_given_t1(
            THETA, LT4, t1, t2
        ) == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("spec, tol", [(LN, 1e-8), (LT4, 1e-6), (SL4, 1e-5)])
def test_conditional_t2_given_t1_integrates_to_one(spec, tol):
    m2 = math.log(THETA.eta2)
    val, _ = integrate.quad(
        lambda u: dist.conditional_pdf_t2_given_t1(THETA, spec, 1.3, math.exp(u))
        * math.exp(u),
        m2 - 40.0 * THETA.sigma2,
        m2 + 40.0 * THETA.sigma2,
        limit=300,
    )
    assert val == pytest.approx(1.0, abs=max(tol, 5e-6))


# ---------------------------------------------------------------------------
# conditional density of T1 given T2 in an interval


def _phi_ratio_reference(theta, t1, lo, hi):
    """Closed lognormal reference built from scipy normal CDFs."""
    z1 = (math.log(t1) - math.log(theta.eta1)) / theta.sigma1
    c = math.sqrt(1.0 - theta.rho**2)
    a = (math.log(lo) - math.log(theta.eta2)) / theta.sigma2 if lo > 0 else -np.inf
    b = (
        (math.log(hi) - math.log(theta.eta2)) / theta.sigma2
        if math.isfinite(hi)
        else np.inf
    )
    num = stats.norm.cdf((b - theta.rho * z1) / c) - stats.norm.cdf(
        (a - theta.rho * z1) / c
    )
    den = stats.norm.cdf(b) - stats.norm.cdf(a)
    return stats.norm.pdf(z1) / (theta.sigma1 * t1) * num / den


@pytest.mark.parametrize("lo, hi", [(0.0, 1.8), (1.5, 3.0), (2.5, math.inf)])
def test_conditional_interval_lognormal_closed(lo, hi):
    for t1 in (0.7, 1.2, 2.1):
        mine = dist.conditional_pdf_t1_given_t2_in_interval(THETA, LN, t1, (lo, hi))
        assert mine == pytest.approx(
            _phi_ratio_reference(THETA, t1, lo, hi), rel=1e-12
        )


def _direct_interval_reference(theta, spec, t1, lo, hi):
    """Quadrature of the defining ratio on the log scale."""
    m2, s2 = math.log(theta.eta2), theta.sigma2
    ulo = math.log(lo) if lo > 0 else m2 - 60.0 * s2
    uhi = math.log(hi) if math.isfinite(hi) else m2 + 60.0 * s2
    num, _ = integrate.quad(
        lambda u: dist.joint_pdf(theta, spec, t1, math.exp(u)) * math.exp(u),
        ulo, uhi, limit=300,
    )
    den, _ = integrate.quad(
        lambda u: dist.marginal_pdf_z(spec, (u - m2) / s2) / s2, ulo, uhi,
        limit=300,
    )
    return num / den


@pytest.mark.parametrize(
    "spec, lo, hi, tol",
    [
        (LT4, 1.5, 3.0, 1e-9),
        (LT4, 0.0, 1.8, 1e-5),
        (SL4, 1.5, 3.0, 1e-6),
        (SL4, 2.5, math.inf, 1e-4),
    ],
)
def test_conditional_interval_vs_direct_ratio(spec, lo, hi, tol):
    # half-infinite reference integrals truncate power tails at 60 standard
    # units, so their comparisons carry a correspondingly looser tolerance
    mine = dist.conditional_pdf_t1_given_t2_in_interval(THETA, spec, 1.2, (lo, hi))
    ref = _direct_interval_reference(THETA, spec, 1.2, lo, hi)
    assert mine == pytest.approx(ref, rel=tol)


def test_conditional_interval_integrates_to_one():
    for spec in (LN, LT4):
        val, _ = integrate.quad(
            lambda u: dist.conditional_pdf_t1_given_t2_in_interval(
                THETA, spec, math.exp(u), (1.5, 3.0)
            )
            * math.exp(u),
            -40.0 * THETA.sigma1,
            40.0 * THETA.sigma1,
            limit=300,
        )
        assert val == pytest.approx(1.0, abs=1e-6)


def test_conditional_interval_validation():
    with pytest.raises(DomainError):
        dist.conditional_pdf_t1_given_t2_in_interval(THETA, LN, 1.0, (2.0, 1.0))
    with pytest.raises(DomainError):
        dist.conditional_pdf_t1_given_t2_in_interval(THETA, LN, 1.0, (-1.0, 2.0))
    with pytest.raises(DomainError):
        dist.conditional_pdf_t1_given_t2_in_interval(THETA, LN, 0.0, (1.0, 2.0))


def test_conditional_interval_zero_probability():
    tiny = BLSParams(1.0, 1.0, 0.1, 0.1, 0.0)
    with pytest.raises(ZeroProbabilityError):
        dist.conditional_pdf_t1_given_t2_in_interval(tiny, LN, 1.0, (1e6, 2e6))
