"""Marginal and conditional laws against closed corollaries and quadrature.

Every marginal and conditional density is one line integral of g. For
lognormal and logt it has textbook closed forms (normal margins and
regression; Student-t margins, and a scaled Student-t with nu + 1 degrees
of freedom given z1) that scipy and mpmath evaluate independently; the
other families are compared against direct quadrature ratios of the joint
density.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from blslab import distribution as dist
from blslab import generators as gen
from blslab.distribution import BLSParams
from blslab.errors import BlsError, DomainError, ZeroProbabilityError
from blslab.generators import make_generator

LN = make_generator("lognormal")
LT4 = make_generator("logt", nu=4.0)
SL4 = make_generator("logslash", nu=4.0)
LAP = make_generator("loglaplace")
# the loglaplace margin is Laplace(0, 1/sqrt 2)
LAPLACE = stats.laplace(scale=1.0 / math.sqrt(2.0))

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


def _hyperbolic2_pdf(z):
    # loghyperbolic(nu) margin: 2 a K1(nu a) / Z with a = sqrt(1 + z^2)
    a = math.sqrt(1.0 + z * z)
    return 2.0 * a * special.k1(2.0 * a) / gen.partition_closed(make_generator("loghyperbolic", nu=2.0))


@pytest.mark.parametrize(
    "spec, closed, z",
    [pytest.param(spec, closed, z, id=f"{name}-{z}")
     for name, spec, closed, zs in [
         ("lognormal", LN, stats.norm.pdf, [0.0, 1e-8, 8.0, 30.0]),
         ("logt4", LT4, lambda z: stats.t.pdf(z, 4), [0.0, 1e-8, 8.0, 30.0]),
         ("loghyperbolic2", make_generator("loghyperbolic", nu=2.0), _hyperbolic2_pdf,
          [0.0, 1e-8, 8.0, 30.0]),
         ("loglaplace", LAP, LAPLACE.pdf,
          [0.0, 1e-10, -1e-10, 1e-8, -1e-8, 3e-7, -3e-7, 0.7, -0.7, 8.0, 30.0]),
     ] for z in zs],
)
def test_marginal_pdf_is_relatively_accurate_in_the_tails(spec, closed, z):
    # quad at epsabs=0: lognormal was 1.1e-6 off at z = 8 and loghyperbolic(2)
    # 1.6e-4 off at z = 30 under an absolute tolerance of 1e-11; at epsrel=1e-10,
    # loglaplace was 1.4e-10, 1.4e-8 and 4.2e-7 off at z = 1e-10, 1e-8, 3e-7
    assert dist.marginal_pdf_z(spec, z) == pytest.approx(closed(z), rel=1e-13, abs=0.0)


def test_marginal_pdf_at_the_ends_of_the_scan():
    # quad raised IntegrationError for logt(1e-12) (it had returned -3.2e-13
    # before that check); the scan's exponential head below 2^-40 holds its mass
    assert dist.marginal_pdf_z(make_generator("logt", nu=1e-12), 0.0) == pytest.approx(
        stats.t.pdf(0.0, 1e-12), rel=1e-13, abs=0.0
    )
    # g(w^2) ~ exp(-1e-150 w): the mass lies far beyond 1e149
    with pytest.raises(DomainError, match="beyond 1e149"):
        dist.marginal_pdf_z(make_generator("loghyperbolic", nu=1e-150), 0.0)
    # g(w^2) falls from w ~ 1e-25 on: the mass lies below 2^-40
    with pytest.raises(DomainError, match="below"):
        dist.marginal_pdf_z(make_generator("logpvii", xi=1.01, theta=1e-50), 0.0)


def test_marginal_pdf_where_g_and_z_underflow_together():
    # loghyperbolic(700): g(1 + w^2) <= e^-989 underflows, and quad of g
    # returned 0, while the margin 2 a K1(nu a) / Z at z = 1 is 1.5e-125
    with mp.workdps(30):
        a, nu = mp.sqrt(2), mp.mpf(700)
        want = 2 * a * mp.besselk(1, nu * a) / (2 * mp.pi * (nu + 1) * mp.exp(-nu) / nu**2)
    got = dist.marginal_pdf_z(make_generator("loghyperbolic", nu=700.0), 1.0)
    assert got == pytest.approx(float(want), rel=1e-13, abs=0.0)


def _mp_law(spec):
    """(g, Z) in mpmath for logpexp, loglogistic and logslash."""
    p = spec.params
    if spec.id is gen.GeneratorId.POWER_EXP:
        xi = mp.mpf(p.xi)
        big_z = 2 ** (xi + 1) * (1 + xi) * mp.gamma(1 + xi) * mp.pi
        return lambda x: mp.exp(-(x ** (1 / (1 + xi))) / 2), big_z
    if spec.id is gen.GeneratorId.LOGISTIC:
        return lambda x: mp.exp(-x) / (1 + mp.exp(-x)) ** 2, mp.pi / 2
    s = (mp.mpf(p.nu) + 1) / 2  # logslash(nu)
    big_z = mp.pi * 2 ** ((3 - mp.mpf(p.nu)) / 2) / (mp.mpf(p.nu) - 1)
    return lambda x: x ** -s * mp.gammainc(s, 0, x / 2), big_z


def _mp_margin(spec, z):
    """The margin 2 int_0^inf g(z^2 + w^2) dw / Z in mpmath at the working
    precision. mp.quad stops at an absolute error near 10^-dps, so the
    integrand is scaled by 1 / g(z^2) for z != 0 (at 30 digits the loglogistic margin at
    z = 8 was 9e-10 off without it), and it breaks at w = 2^k about every
    scale of the integrand."""
    g, big_z = _mp_law(spec)
    x0 = mp.mpf(z) ** 2
    breaks = [0] + [mp.mpf(2) ** k for k in range(-12, 12)] + [mp.inf]
    c = g(x0) if z else 1  # slash's g(0) is a 0 * inf form in mpmath
    return 2 * c * mp.quad(lambda w: g(x0 + w * w) / c, breaks) / big_z


@pytest.mark.parametrize(
    "spec",
    [make_generator("logpexp", xi=0.5), make_generator("logpexp", xi=-0.5),
     make_generator("loglogistic"), SL4],
    ids=lambda s: s.label(),
)
def test_marginal_pdf_without_a_closed_form_matches_mpmath(spec):
    for z in (0.0, 0.7, 3.0, 8.0):
        with mp.workdps(30):
            want = float(_mp_margin(spec, z))
        if want < np.finfo(float).tiny:  # logpexp(-0.5) at z = 8: e^-2048
            continue
        assert dist.marginal_pdf_z(spec, z) == pytest.approx(want, rel=1e-13, abs=0.0), z


def _mp_generator(spec):
    if spec.id is gen.GeneratorId.LOGNORMAL:
        return lambda x: mp.exp(-x / 2)
    if spec.id is gen.GeneratorId.LAPLACE:
        return lambda x: mp.besselk(0, mp.sqrt(2 * x))
    return lambda x: (1 + x / 4) ** -3  # logt(4)


@pytest.mark.parametrize("spec", [LN, LT4, LAP], ids=lambda s: s.label())
@pytest.mark.parametrize(
    "z, lo, hi",
    [
        (0.5, 1.0, 1.1),  # inside one scan step
        (0.5, -1.1, -1.0),
        (2.0, 5.0, 5.5),
        (0.5, 1e-20, 2e-20),  # below the scan's first node, 2^-40
        (0.5, -1e-13, 1e-13),
        (0.5, -3e-13, 1.0),
        # short sides at z = 0, where loglaplace's log-singular head is no
        # exponential: from 2^-40 on, (0, 1e-8] was 2e-7 off and (0, 1e-13] 1e-3
        (0.0, -1e-8, 1e-13),
        (0.0, 0.0, 1e-3),
        (0.0, 0.0, 1e-100),  # just above where z^2 + w^2 underflows at the scan's first nodes
        (1.5, 0.3, 2.0),  # lo > 0
        (1.5, 2.0, math.inf),
        (1.5, 1e-5, 1e-4),
        (0.5, -2.0, 3.0),
    ],
)
def test_line_mass_on_segments_matches_mpmath(spec, z, lo, hi):
    g = _mp_generator(spec)
    with mp.workdps(30):
        big_z = mp.mpf(gen.partition_closed(spec))  # the double of pi or 2 pi
        breaks = sorted({lo, hi, *(v for v in (0.0, 1.0, -1.0) if lo < v < hi)})
        want = mp.quad(lambda w: g(mp.mpf(z) ** 2 + w * w), [mp.mpf(b) for b in breaks]) / big_z
    got = math.exp(dist._log_line_mass(spec, z, lo, hi))
    assert got == pytest.approx(float(want), rel=1e-13, abs=0.0)


def test_line_mass_below_the_scan_at_the_singular_centre():
    # on (0, b] at z = 0, z^2 + w^2 underflows to loglaplace's singular g(0)
    # at the scan's first nodes for b <~ 1e-145: the steps never resolved
    # there and raised IntegrationError (b = 1e-100 resolves: see above)
    for b in (1e-150, 1e-300):
        with pytest.raises(DomainError, match="below the scan's reach"):
            dist._log_line_mass(LAP, 0.0, 0.0, b)


def test_densities_of_the_line_mass_import_no_quadrature():
    # the margin and both conditionals run on the generators' own scan, and
    # the CDFs on the angle rule and the spec's tail ladder: the elementary
    # families import no scipy, the others no scipy.integrate. So do the far
    # tails: T2 | T1 at z1 = 40 and a strip z2 in (8, 9], P = 6e-16 for lognormal
    src = str(Path(gen.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    script = (
        "import math, sys\n"
        "from blslab import distribution as dist\n"
        "from blslab.generators import make_generator as mk\n"
        "th = dist.BLSParams(1.0, 2.0, 0.5, 0.3, 0.4)\n"
        "def run(specs):\n"
        "    for s in specs:\n"
        "        dist.marginal_pdf_z(s, 0.7)\n"
        "        dist.conditional_pdf_t2_given_t1(th, s, 1.2, 2.5)\n"
        "        dist.conditional_pdf_t2_given_t1(th, s, math.exp(20.0), 2.5)\n"  # z1 = 40
        "        dist.conditional_pdf_t1_given_t2_in_interval(th, s, 1.2, (1.5, 3.0))\n"
        "        dist.conditional_pdf_t1_given_t2_in_interval(th, s, 1.2, (2.0 * math.exp(2.4), 2.0 * math.exp(2.7)))\n"
        "        dist.joint_cdf(th, s, 0.3, 0.9)\n"
        "        dist.marginal_cdf_z(s, -9.0)\n"
        "run([mk('lognormal'), mk('logt', nu=4.0), mk('logpvii', xi=5.0, theta=22.0),\n"
        "     mk('loghyperbolic', nu=2.0)])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "run([mk('loglaplace'), mk('logslash', nu=4.0), mk('logpexp', xi=0.5), mk('loglogistic')])\n"
        "print('scipy.special' in sys.modules, sorted(m for m in sys.modules if 'integrate' in m))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "True []"]


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


@pytest.mark.parametrize(
    "nu, p", [(0.5, 0.999), (0.05, 0.9), (0.5, 0.001), (0.05, 0.1), (4.0, 1e-16), (4.0, 1e-300)]
)
def test_marginal_quantile_beyond_double_range_is_domain_error(nu, p):
    # e^(sigma z) overflows (math.exp raised OverflowError) or underflows to
    # 0, outside the support; radial_isf raises DomainError there too. The
    # bracket search stops there, long before logt(4)'s root near z ~ 1e75
    # at p = 1e-300
    th = BLSParams(1.0, 2.0, 0.5, 0.3, 0.4)
    with pytest.raises(DomainError, match="beyond the double range"):
        dist.marginal_quantile(th, make_generator("logt", nu=nu), 1, p)


def test_marginal_quantile_bracket_stops_where_z_squared_overflows():
    # logt(0.1)'s z quantile at p = 1e-16 lies beyond the doubles, while at
    # sigma1 = 1e-200 the bracket's e^(sigma z) stays near 1: the search must
    # stop where z^2 leaves the doubles, not bracket the root with z = inf.
    # (logt(1e-10) at p = 0.9 stops before, at the angle rule's own check)
    th = BLSParams(1.0, 2.0, 1e-200, 0.3, 0.4)
    with pytest.raises(DomainError, match="z\\^2 is beyond the double range"):
        dist.marginal_quantile(th, make_generator("logt", nu=0.1), 1, 1e-16)


def _t4_ppf(p):
    # the closed Student-t(4) quantile: with a = 4p(1 - p) and
    # c = cos(arccos(sqrt a) / 3) / sqrt a, t = sign(p - 1/2) 2 sqrt(c - 1)
    a = 4.0 * p * (1.0 - p)
    c = math.cos(math.acos(math.sqrt(a)) / 3.0) / math.sqrt(a)
    return math.copysign(2.0 * math.sqrt(c - 1.0), p - 0.5)


@pytest.mark.parametrize(
    "p", [1e-300, 1e-100, 1e-30, 1e-16, 1e-12, 1e-8, 0.01, 0.3, 0.7, 0.9, 0.99,
          1 - 1e-6, 1 - 1e-8, 1 - 1e-12]
)
def test_marginal_quantile_tails_match_closed_quantiles(p):
    # the lower tail is solved as P(Z <= -z) = min(p, 1 - p) itself, which
    # p - 1/2 rounded away (lognormal was 0.063 off at p = 1e-16); below
    # 1e-16 the angle rule's tail breaks must follow the root (lognormal was
    # 9.6e-3 off in z at p = 1e-300)
    from scipy.special import ndtri

    th = BLSParams(1.0, 2.0, 0.5, 0.3, 0.4)
    z = ndtri(p) if p < 0.5 else -ndtri(1.0 - p)  # 1 - p is exact for p > 1/2
    want = 2.0 * math.exp(0.3 * z)
    assert dist.marginal_quantile(th, LN, 2, p) == pytest.approx(want, rel=1e-10)
    z = LAPLACE.ppf(p) if p < 0.5 else -LAPLACE.ppf(1.0 - p)
    assert dist.marginal_quantile(th, LAP, 2, p) == pytest.approx(2.0 * math.exp(0.3 * z), rel=1e-10)
    if p > 1e-16:  # logt(4) leaves the doubles there (the test above)
        want = 2.0 * math.exp(0.3 * _t4_ppf(p))
        assert dist.marginal_quantile(th, LT4, 2, p) == pytest.approx(want, rel=1e-10)


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


@pytest.mark.parametrize("nu", [0.05, 1.0])
def test_marginal_cdf_of_heavy_logt_is_student_t(nu):
    # S(z^2 / s^2) ~ |s|^nu near the angle where s = 0: a singularity the
    # angle rule must grade down to, for small and large |z| alike
    spec = make_generator("logt", nu=nu)
    for z in (-30.0, -1.0, 1e-3, 0.5, 3.0, 30.0):
        assert abs(dist.marginal_cdf_z(spec, z) - stats.t.cdf(z, nu)) <= 1e-12


@pytest.mark.parametrize("z", [-30.0, -8.0, -0.7, 0.7, 8.0])
def test_marginal_cdf_of_loglaplace_is_laplace(z):
    assert dist.marginal_cdf_z(LAP, z) == pytest.approx(LAPLACE.cdf(z), rel=1e-10, abs=0.0)


@pytest.mark.parametrize("z", [-8.0, -12.0, -20.0, -30.0, -37.0])
def test_marginal_cdf_is_relative_in_the_lognormal_tail(z):
    # the angle rule's tail breaks start below the mass of the half-plane (it
    # was 0.32 off at z = -12 with breaks fixed at the levels 2^-1 ... 2^-40)
    with mp.workdps(40):
        want = mp.ncdf(z)
    assert dist.marginal_cdf_z(LN, z) == pytest.approx(float(want), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("p", [1e-16, 1e-30, 1e-100, 1e-250])
def test_marginal_cdf_is_relative_in_the_loglaplace_tail(p):
    # the Laplace margin: P(Z1 <= z) = e^(sqrt(2) z) / 2 for z <= 0 (it was
    # 0.044 off at p = 1e-30)
    z = math.log(2.0 * p) / math.sqrt(2.0)
    with mp.workdps(40):
        want = mp.exp(mp.sqrt(2) * z) / 2
    assert dist.marginal_cdf_z(LAP, z) == pytest.approx(float(want), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("lo, hi", [(6.5, 7.0), (7.0, 7.05), (-7.05, -6.9)])
def test_strip_probability_is_relative_in_the_lognormal_tail(lo, hi):
    # P(lo < Z2 <= hi) = 3.9e-11, 3.9e-13 and 1.7e-12: the interval
    # conditional's denominator, relative where the strip lies off the origin
    with mp.workdps(40):
        want = mp.ncdf(hi) - mp.ncdf(lo)
    got = dist._wedge_prob(LN, [[1.0, 0.0], [-1.0, 0.0]], [hi, -lo])
    assert got == pytest.approx(float(want), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("xi", [-0.5, -0.9, -0.99, -0.999])
def test_marginal_cdf_of_steep_logpexp_matches_direct_quadrature(xi):
    # as xi -> -1 the radial law tends to the uniform disc and its survival
    # function drops to 0 within a relative width 1 + xi of x = 1
    spec = make_generator("logpexp", xi=xi)
    for z in (0.1, 0.3, 0.7, 1.0, 1.2):
        # P(0 < Z1 <= z) = (1/pi) int_0^inf z F(z^2 + w^2) / (z^2 + w^2) dw
        half, _ = integrate.quad(
            lambda w: z * (1.0 - gen.radial_sf(spec, z * z + w * w)) / (z * z + w * w),
            0.0, np.inf, epsabs=1e-14, epsrel=1e-12, limit=200,
        )
        assert abs(dist.marginal_cdf_z(spec, z) - (0.5 + half / math.pi)) <= 1e-12


def test_marginal_cdf_rejects_a_square_beyond_double_range():
    for z in (1e200, -1e200, math.nan):
        with pytest.raises(DomainError):
            dist.marginal_cdf_z(LN, z)


def _t_cdf(nu, t):  # the Student-t CDF at t < 0, to 40 digits
    with mp.workdps(40):
        nu, t = mp.mpf(nu), mp.mpf(t)
        return float(mp.betainc(nu / 2, 0.5, 0, nu / (nu + t * t), regularized=True) / 2)


def test_angle_rule_raises_where_the_radial_mass_beyond_the_doubles_counts():
    # logt(0.01) keeps S(X_MAX) = 0.028 beyond the doubles, where the rule
    # reads S(r^2) = 0. Near the angle where s = 0 that band was 4.4e-5 of
    # the CDF at z = 1e150 and 46% at 1e154
    heavy = make_generator("logt", nu=0.01)
    assert dist.marginal_cdf_z(heavy, -1e140) == pytest.approx(_t_cdf(0.01, -1e140), rel=1e-14)
    for z in (1e150, 1e154):
        with pytest.raises(DomainError, match="beyond the double range"):
            dist.marginal_cdf_z(heavy, -z)
    with pytest.raises(DomainError, match="beyond the double range"):  # it returned 0.9999995
        dist.marginal_quantile(BLSParams(1.0, 2.0, 1e-160, 0.3, 0.4), heavy, 1, 0.01)
    with pytest.raises(DomainError, match="the angle rule needs radial mass"):
        dist.marginal_quantile(BLSParams(1.0, 2.0, 1e-200, 0.3, 0.4), make_generator("logt", nu=1e-10), 1, 0.9)
    # S(X_MAX) <= 7e-78: the same band holds no mass that counts
    for spec, nu in ((LN, math.inf), (LT4, 4.0), (make_generator("logt", nu=0.5), 0.5)):
        want = 0.0 if nu == math.inf else _t_cdf(nu, -1e154)
        assert dist.marginal_cdf_z(spec, -1e154) == pytest.approx(want, abs=1e-14)


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


TAIL_THETA = BLSParams(1.0, 2.0, 0.5, 0.3, 0.4)


def _check_given_t1_in_the_tail(spec, z1, w, g, big_z, margin):
    """T2 | T1 at z1 and w = (z2 - rho z1) / sqrt(1 - rho^2) against
    g(xq) / (sigma2 sqrt(1 - rho^2) t2 Z f_Z1(z1)) in mpmath at the doubles
    t1 and t2, with the margin f_Z1 = margin(z1). The bound 1e-13 + 4 eps
    |log f_Z1(z1)| is the problem's own conditioning in t1, as z1^2 enters g."""
    th = TAIL_THETA
    z2 = th.rho * z1 + math.sqrt(1.0 - th.rho**2) * w
    t1, t2 = th.eta1 * math.exp(th.sigma1 * z1), th.eta2 * math.exp(th.sigma2 * z2)
    with mp.workdps(40):
        rho = mp.mpf(th.rho)
        c = mp.sqrt(1 - rho * rho)
        z1, z2 = ((mp.log(t) - mp.log(e)) / s for t, e, s in ((t1, th.eta1, th.sigma1), (t2, th.eta2, th.sigma2)))
        f_z1 = margin(z1)
        want = g(z1 * z1 + ((z2 - rho * z1) / c) ** 2) / (th.sigma2 * c * t2 * big_z * f_z1)
        bound = 1e-13 + 4.0 * np.finfo(float).eps * abs(float(mp.log(f_z1)))
    got = dist.conditional_pdf_t2_given_t1(th, spec, t1, t2)
    assert got == pytest.approx(float(want), rel=bound, abs=0.0)


@pytest.mark.parametrize("z1", [38.0, 38.5, 40.0, 100.0, 1000.0])
def test_conditional_t2_given_t1_lognormal_past_the_underflow_of_the_margin(z1):
    # the margin, exponentiated between two logs, is subnormal from z1 ~ 37.7
    # and 0 from z1 ~ 38.6: T2 | T1 was 4.4e-10 off at z1 = 38, 9.8e-2 at 38.5
    # and a ZeroProbabilityError past that, while the conditional is O(1)
    _check_given_t1_in_the_tail(LN, z1, 0.7, lambda x: mp.exp(-x / 2), 2 * mp.pi, mp.npdf)


@pytest.mark.parametrize(
    "spec, z1, w",
    [(make_generator("logpexp", xi=-0.5), 10.0, 0.02), (make_generator("logpexp", xi=-0.5), 30.0, 0.02),
     (make_generator("loglogistic"), 30.0, 0.7)],
    ids=["logpexp(-0.5)-10", "logpexp(-0.5)-30", "loglogistic-30"],
)
def test_conditional_t2_given_t1_past_the_underflow_of_the_margin_matches_mpmath(spec, z1, w):
    # the margins are ~e^-5000, e^-405000 and e^-900: each raised ZeroProbabilityError
    _check_given_t1_in_the_tail(spec, z1, w, *_mp_law(spec), lambda z: _mp_margin(spec, z))


# ---------------------------------------------------------------------------
# conditional density of T1 given T2 in an interval


def _prob(law, a, b):
    """P(a < X <= b) from survival functions on the side where they do not
    cancel, so that a tail interval keeps its relative accuracy."""
    if a >= 0.0:
        return law.sf(a) - law.sf(b)
    if b <= 0.0:
        return law.sf(-b) - law.sf(-a)
    return 1.0 - law.sf(b) - law.sf(-a)


def _closed_interval_reference(theta, spec, t1, lo, hi):
    """Closed lognormal or logt(nu) interval conditional from scipy: the
    margin of z1 times P(w in the interval's w-range | z1), over P(lo < T2 <= hi).
    Given z1, w is standard normal, or Student-t(nu + 1) over
    s = sqrt((nu + 1) / (nu + z1^2)), for logt."""
    z1 = (math.log(t1) - math.log(theta.eta1)) / theta.sigma1
    c = math.sqrt(1.0 - theta.rho**2)
    a = (math.log(lo) - math.log(theta.eta2)) / theta.sigma2 if lo > 0 else -np.inf
    b = (math.log(hi) - math.log(theta.eta2)) / theta.sigma2 if math.isfinite(hi) else np.inf
    wa, wb = (a - theta.rho * z1) / c, (b - theta.rho * z1) / c
    if spec.id is gen.GeneratorId.LOGNORMAL:
        margin, given, s = stats.norm, stats.norm, 1.0
    else:
        nu = spec.params.nu
        margin, given = stats.t(nu), stats.t(nu + 1.0)
        s = math.sqrt((nu + 1.0) / (nu + z1 * z1))
    num = margin.pdf(z1) * _prob(given, s * wa, s * wb)
    return num / (theta.sigma1 * t1 * _prob(margin, a, b))


@pytest.mark.parametrize("lo, hi", [(0.0, 1.8), (1.5, 3.0), (2.5, math.inf)])
def test_conditional_interval_lognormal_closed(lo, hi):
    for t1 in (0.7, 1.2, 2.1):
        mine = dist.conditional_pdf_t1_given_t2_in_interval(THETA, LN, t1, (lo, hi))
        assert mine == pytest.approx(
            _closed_interval_reference(THETA, LN, t1, lo, hi), rel=1e-12
        )


@pytest.mark.parametrize("lo, hi", [(0.0, 1.8), (5.0, 9.0), (6.5, 7.0), (2.0, math.inf), (0.0, math.inf)])
@pytest.mark.parametrize("spec", [LN, LT4], ids=lambda s: s.label())
def test_conditional_interval_matches_closed_oracles_in_the_tails(spec, lo, hi):
    # the closed lognormal branch, a difference of normal CDFs near 1, was
    # 1.3e-8 off at sigma2 = 0.3, t1 = 0.05 on (5, 9]
    for th in (THETA, BLSParams(1.0, 2.0, 0.5, 0.3, 0.4)):
        for t1 in (0.05, 1.2, 40.0):
            mine = dist.conditional_pdf_t1_given_t2_in_interval(th, spec, t1, (lo, hi))
            assert mine == pytest.approx(
                _closed_interval_reference(th, spec, t1, lo, hi), rel=1e-10, abs=0.0
            )


def _mp_t_cdf(x, nu):
    if mp.isinf(x):
        return mp.mpf(1) if x > 0 else mp.mpf(0)
    tail = mp.betainc(nu / 2, mp.mpf(1) / 2, 0, nu / (nu + x * x), regularized=True) / 2
    return 1 - tail if x > 0 else tail


def _mp_logt_interval(theta, nu, t1, lo, hi):
    """The logt(nu) interval conditional in mpmath at the working precision:
    the Student-t(nu) margin of z1 times P(w in the interval's w-range | z1),
    over P(lo < T2 <= hi); lo > 0."""
    n = mp.mpf(nu)
    rho, c = mp.mpf(theta.rho), mp.sqrt(1 - mp.mpf(theta.rho) ** 2)
    z1 = (mp.log(t1) - mp.log(theta.eta1)) / theta.sigma1
    a = (mp.log(lo) - mp.log(theta.eta2)) / theta.sigma2
    b = (mp.log(hi) - mp.log(theta.eta2)) / theta.sigma2 if math.isfinite(hi) else mp.inf
    s = mp.sqrt((n + 1) / (n + z1 * z1))
    pdf = mp.exp(
        mp.loggamma((n + 1) / 2) - mp.loggamma(n / 2) - (n + 1) / 2 * mp.log1p(z1 * z1 / n)
    ) / mp.sqrt(n * mp.pi)
    num = pdf * (_mp_t_cdf(s * (b - rho * z1) / c, n + 1) - _mp_t_cdf(s * (a - rho * z1) / c, n + 1))
    return num / (theta.sigma1 * t1 * (_mp_t_cdf(b, n) - _mp_t_cdf(a, n)))


@pytest.mark.parametrize("nu", [1e6, 1e8, 1e12])
def test_conditional_interval_of_logt_with_large_nu_matches_mpmath(nu):
    # the closed logt branch lost digits in lgamma((nu + 1)/2) - lgamma(nu/2):
    # 5.5e-10 off at nu = 1e6, 1.9e-4 at nu = 1e12
    spec = make_generator("logt", nu=nu)
    with mp.workdps(30):
        for t1, (lo, hi) in ((1.2, (1.5, 3.0)), (0.05, (5.0, 9.0)), (40.0, (2.0, math.inf))):
            want = _mp_logt_interval(THETA, nu, t1, lo, hi)
            mine = dist.conditional_pdf_t1_given_t2_in_interval(THETA, spec, t1, (lo, hi))
            assert mine == pytest.approx(float(want), rel=1e-10, abs=0.0)


@pytest.mark.parametrize("nu, tol", [(1e-9, 5e-8), (1e-11, 1e-6)])
def test_conditional_interval_denominator_is_one_strip(nu, tol):
    # P(5 < T2 <= 9) is ~1e-9 of mass here. As the difference of two CDFs
    # near 1/2, each ~1e-14 off, the conditional was 1.1e-6 (nu = 1e-9) and
    # 9.4e-5 (nu = 1e-11) off; the strip's own angle rule keeps it
    th = BLSParams(1.0, 2.0, 0.5, 0.3, 0.4)
    with mp.workdps(40):
        want = _mp_logt_interval(th, nu, 1.2, 5.0, 9.0)
    mine = dist.conditional_pdf_t1_given_t2_in_interval(th, make_generator("logt", nu=nu), 1.2, (5.0, 9.0))
    assert mine == pytest.approx(float(want), rel=tol, abs=0.0)


def test_conditional_interval_of_loglaplace_at_the_singular_centre():
    # at t1 = eta1 the line runs through the centre, where g = K0(sqrt(2x))
    # is singular; quad over the whole w-range raised IntegrationError. The
    # margin is Laplace with scale 1/sqrt(2) and Z = pi, so the reference is
    # one mpmath integral of K0 over |w| on each side of 0
    th = BLSParams(1.0, 2.0, 0.5, 0.3, 0.4)
    lo, hi = 1.0, 4.0
    a, b = ((math.log(v) - math.log(th.eta2)) / th.sigma2 for v in (lo, hi))
    c = math.sqrt(1.0 - th.rho**2)
    with mp.workdps(30):
        line = sum(
            mp.quad(lambda w: mp.besselk(0, mp.sqrt(2) * w), [0, abs(e) / c]) for e in (a, b)
        ) / mp.pi
        laplace = stats.laplace(scale=1.0 / math.sqrt(2.0))
        want = line / (th.sigma1 * th.eta1 * _prob(laplace, a, b))
    got = dist.conditional_pdf_t1_given_t2_in_interval(th, make_generator("loglaplace"), th.eta1, (lo, hi))
    assert got == pytest.approx(float(want), rel=1e-10, abs=0.0)


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


def _mp_normal_strip(a, b):
    # P(a < X <= b), X standard normal, from the tail where it does not cancel
    return mp.ncdf(-a) - mp.ncdf(-b) if a >= 0 else mp.ncdf(b) - mp.ncdf(a)


@pytest.mark.parametrize("z_lo, z_hi", [(8.0, 9.0), (10.0, 10.5), (-12.0, -11.0), (-30.0, -29.0)])
def test_conditional_interval_with_a_tiny_strip_matches_mpmath(z_lo, z_hi):
    # P(z_lo < Z2 <= z_hi) = 6.2e-16, 7.6e-24, 1.9e-28 and 3.3e-185: each
    # raised ZeroProbabilityError under the old floor P < 1e-12
    th = TAIL_THETA
    lo, hi = (th.eta2 * math.exp(th.sigma2 * z) for z in (z_lo, z_hi))
    for t1 in (0.05, 1.2, 40.0):
        with mp.workdps(40):
            rho = mp.mpf(th.rho)
            c = mp.sqrt(1 - rho * rho)
            z1 = (mp.log(t1) - mp.log(th.eta1)) / th.sigma1
            a, b = ((mp.log(v) - mp.log(th.eta2)) / th.sigma2 for v in (lo, hi))
            want = mp.npdf(z1) * _mp_normal_strip((a - rho * z1) / c, (b - rho * z1) / c) / (
                th.sigma1 * t1 * _mp_normal_strip(a, b))
        got = dist.conditional_pdf_t1_given_t2_in_interval(th, LN, t1, (lo, hi))
        assert got == pytest.approx(float(want), rel=1e-12, abs=0.0), t1


def test_conditional_interval_zero_probability():
    tiny = BLSParams(1.0, 1.0, 0.1, 0.1, 0.0)
    with pytest.raises(ZeroProbabilityError):
        dist.conditional_pdf_t1_given_t2_in_interval(tiny, LN, 1.0, (1e6, 2e6))


# t > 0 from the smallest subnormal to 1e308: the ends at every example, and
# log-uniform values between
_POSITIVE = st.one_of(
    st.sampled_from([5e-324, 1e-310, 1e-300, 1e308]),
    st.floats(math.log(5e-324), math.log(1e308)).map(math.exp),
)


_SCALES = st.sampled_from([1e-3, 0.5, 10.0])


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(
    st.sampled_from(
        [LN, make_generator("logt", nu=0.05), LT4, make_generator("loglaplace"), SL4,
         make_generator("logpexp", xi=-0.5)]
    ),
    _SCALES, _SCALES, st.sampled_from([-0.99, 0.4, 0.99]),
    _POSITIVE, _POSITIVE, _POSITIVE, _POSITIVE,
)
def test_conditionals_are_finite_or_a_bls_error(spec, sigma1, sigma2, rho, t1, t2, lo, hi):
    # t1 sigma1 underflows to 0 at a subnormal t1, where both conditionals
    # raised a bare ZeroDivisionError; each value is now a finite density or
    # a BlsError (DomainError where the density leaves the doubles), and a
    # ZeroProbabilityError is honest: the log margin at z1 is -inf, or the
    # strip's probability is 0 in doubles
    th = BLSParams(1.0, 2.0, sigma1, sigma2, rho)
    lo, hi = min(lo, hi), max(lo, hi)
    b_lo, b_hi = dist.standardize(th, lo, hi)
    for call, vanishes in (
        (lambda: dist.conditional_pdf_t2_given_t1(th, spec, t1, t2),
         lambda: dist._log_line_mass(spec, dist.standardize(th, t1, t2)[0], -math.inf, math.inf) == -math.inf),
        (lambda: dist.conditional_pdf_t1_given_t2_in_interval(th, spec, t1, (lo, hi)),
         lambda: dist._wedge_prob(spec, [[1.0, 0.0], [-1.0, 0.0]], [b_hi, -b_lo]) == 0.0),
    ):
        try:
            val = call()
        except ZeroProbabilityError:
            assert vanishes(), (spec.label(), th, t1, t2, lo, hi)
            continue
        except BlsError:
            continue
        assert 0.0 <= val < math.inf, (spec.label(), th, t1, t2, lo, hi, val)
