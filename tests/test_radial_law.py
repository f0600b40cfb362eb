"""Closed radial law: survival function, its inverse, and the callers' contract.

The squared Mahalanobis radius X has density pi g(x) / Z. Every family has a
closed survival function S = radial_sf and an inverse radial_isf; these
property tests drive both over each family's parameter range and over tail
probabilities down to 1e-300, under a fixed derandomized hypothesis profile.
"""

import math
import os
import subprocess
import sys

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
    st.builds(lambda nu: make_generator("loghyperbolic", nu=nu), _pos(0.01, 700.0)),
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
    # up to rounding: at adjacent floats q the computed quantiles (Halley
    # roots within their stopping rules) can swap by a few ulp
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


# standardized log-scale coordinates: the origin, points near it, and a range
# reaching far into every family's tail
ZS = st.one_of(st.sampled_from([0.0, 1e-8, -1e-8]), _pos(-40.0, 40.0))


@PROFILE
@given(SPECS, _pos(-0.99, 0.99), ZS, ZS, _pos(0.0, 5.0), _pos(0.0, 5.0))
def test_joint_cdf_is_a_monotone_probability(spec, rho, a, b, da, db):
    th = BLSParams(1.0, 1.0, 1.0, 1.0, rho)

    def cdf(z1, z2):
        return dist.joint_cdf(th, spec, math.exp(z1), math.exp(z2))

    f = cdf(a, b)
    assert 0.0 <= f <= 1.0
    # non-decreasing in t1 and in t2, up to the rule's rounding
    assert cdf(a + da, b) >= f - 1e-14
    assert cdf(a, b + db) >= f - 1e-14


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
    # the joint CDF needs no truncation radius: at the medians it is the
    # orthant probability 1/4 + asin(rho)/(2 pi) of any elliptical law
    orthant = 0.25 + math.asin(THETA.rho) / (2.0 * math.pi)
    assert abs(dist.joint_cdf(THETA, spec, THETA.eta1, THETA.eta2) - orthant) <= 1e-14


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


# the three families whose radial law radial_isf inverts by Halley steps
HALLEY = (
    [make_generator("loghyperbolic", nu=nu) for nu in (0.5, 2.0, 50.0)]
    + [make_generator("loglaplace")]
    + [make_generator("logslash", nu=nu) for nu in (1.01, 1.5, 4.0, 30.0)]
)
# and logpexp, whose closed inverse goes through scipy's inverse incomplete
# gamma; at xi = -0.9990999 its w underflows from q ~ 0.5 up
ITERATED = HALLEY + [
    make_generator("logpexp", xi=xi) for xi in (-0.9990999, -0.999, -0.9, -0.5, 0.5, 1.0)
]


@pytest.mark.parametrize("spec", HALLEY, ids=lambda s: s.label())
def test_halley_dl_matches_central_differences(spec):
    # dL = d log(x f(x)) / d log x, the curvature term of the Halley step
    xs = np.geomspace(1e-6, 1e6, 25)
    h = 1e-5
    log_xf = [gen._radial_log_tails(spec, xs * math.exp(d))[2] for d in (h, -h)]
    fd = (log_xf[0] - log_xf[1]) / (2.0 * h)
    dl = gen._radial_log_tails(spec, xs)[3]
    # the difference quotient carries a rounding error of ~eps |log(x f)| / h
    scale = np.abs(gen._radial_log_tails(spec, xs)[2])
    tol = 1e-6 * np.abs(fd) + 4.0 * np.finfo(float).eps * scale / h
    assert np.all(np.abs(dl - fd) <= tol)


# the closed Pearson VII inverse that logt and logpvii share
PEARSON_VII = [make_generator("logt", nu=nu) for nu in (0.05, 0.5, 1.0, 4.0, 200.0, 1e308)] + [
    make_generator("logpvii", xi=1.01, theta=1.0),
    make_generator("logpvii", xi=5.0, theta=22.0),
]


def _mp_sf(spec, x):
    """S(x) in 40-digit arithmetic, from each family's closed form."""
    import mpmath as mp

    x, p = mp.mpf(x), spec.params
    if spec.id.value == "logt":  # S = (1 + x/theta)^(1 - xi), xi = nu/2 + 1, theta = nu
        return mp.exp(-mp.mpf(p.nu) / 2 * mp.log1p(x / p.nu))
    if spec.id.value == "logpvii":
        return mp.exp((1 - mp.mpf(p.xi)) * mp.log1p(x / p.theta))
    if spec.id.value == "loghyperbolic":
        d = mp.sqrt(1 + x) - 1
        return mp.exp(-p.nu * d) * (1 + p.nu * d / (p.nu + 1))
    if spec.id.value == "loglaplace":
        v = mp.sqrt(2 * x)
        return v * mp.besselk(1, v)
    if spec.id.value == "logpexp":  # S = Gamma(a, w) / Gamma(a), w = x^(1/a) / 2
        a = mp.mpf(1.0 + p.xi)
        w = x ** (1 / a) / 2
        if w < 1:  # 1 - P(a, w): mpmath's upper tail is slow at a tiny w
            return 1 - mp.gammainc(a, 0, w, regularized=True)
        return mp.gammainc(a, w, mp.inf, regularized=True)
    # logslash: S = y^(1-s) gamma(s, y) + e^-y, y = x/2, with the double s
    # the library evaluates (s rounds, and at nu = 1.01 the tail's
    # x^(1-s) turns that rounding into 1e-11 of the root)
    s, y = mp.mpf(0.5 * (p.nu + 1.0)), x / 2
    return y ** (1 - s) * mp.gammainc(s, 0, y) + mp.exp(-y)


@pytest.mark.parametrize(
    "spec",
    [make_generator("loglaplace")]
    + [make_generator("logpexp", xi=xi) for xi in (-0.9990999, -0.9, -0.5, 0.5)],
    ids=lambda s: s.label(),
)
def test_radial_sf_matches_mpmath(spec):
    # loglaplace's S = e^(log S) of the Halley tails. Rounding log S costs
    # eps |log S| of S, so the check runs from S ~ 1 down to S = 1e-40
    import mpmath as mp

    x = np.concatenate([[1e-300, 1e-8], gen.radial_isf(spec, np.geomspace(1e-40, 0.999, 60))])
    with mp.workdps(40):
        want = [float(_mp_sf(spec, v)) for v in x]
    np.testing.assert_allclose(gen.radial_sf(spec, x), want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("spec", ITERATED + PEARSON_VII, ids=lambda s: s.label())
def test_radial_isf_matches_mpmath_root(spec):
    import mpmath as mp

    # S(1e300) puts a root near the top of the doubles, where logt(0.05)'s
    # closed inverse multiplies the rounding of xi - 1 by log(x / theta) ~ 700
    edge = gen.radial_sf(spec, 1e300)
    qa = np.concatenate(
        [10.0 ** -np.arange(300.0, 0.0, -15.0), [0.05, 0.3, 0.5, 0.7, 0.9, 0.99]]
        + [[1.0 - 1e-3, 1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12], [edge] if edge > 0.0 else []]
    )
    # each q alone, and all of them in one large call (padded with uniform
    # q in the same range)
    scalar = _isf(spec, qa)
    qs = qa[np.isfinite(scalar)]
    pad = np.random.default_rng(5).uniform(qs.min(), 1.0, 4096)
    large = gen.radial_isf(spec, np.concatenate([qs, pad]))[: qs.size]
    for x in (scalar[np.isfinite(scalar)], large):  # fail fast, before mpmath searches
        assert np.all(np.abs(gen.radial_sf(spec, x) / qs - 1.0) <= 1e-6)
    with mp.workdps(40):
        for q in qa[~np.isfinite(scalar)]:  # beyond the double range: check that it is
            assert gen.radial_sf(spec, np.finfo(float).max) > q
            assert _mp_sf(spec, np.finfo(float).max) > q
        # the 40-digit root, found in log(x) / k, where log S varies on a
        # unit scale: logpexp's log S varies on the scale a = 1 + xi of log x
        k = mp.mpf(1.0 + spec.params.xi if spec.id.value == "logpexp" else 1.0)
        for q, xs, xl in zip(qs, scalar[np.isfinite(scalar)], large):
            lq = mp.log(mp.mpf(q))
            t = mp.findroot(lambda t: mp.log(_mp_sf(spec, mp.exp(k * t))) - lq, math.log(xs) / k)
            root = mp.exp(k * t)
            assert abs(xs - root) <= 1e-12 * root, (q, xs)
            assert abs(xl - root) <= 1e-12 * root, (q, xl)


@pytest.mark.parametrize(
    "spec",
    [make_generator("logt", nu=nu) for nu in (0.001, 0.05, 0.5)]
    + [make_generator("logpvii", xi=1.01, theta=0.3)],
    ids=lambda s: s.label(),
)
def test_pearson_vii_top_of_the_doubles(spec):
    # for theta < 1, x/theta (and expm1 in the inverse) overflow before x
    # does; S and g are still far from 0 there
    import mpmath as mp

    xi, _, theta = gen._pvii(spec.params)
    x = np.array([1e300, 1e308, 1.7e308])
    with mp.workdps(40):
        lg = [float(-xi * mp.log(1 + mp.mpf(v) / theta)) for v in x]
        sf = [float(_mp_sf(spec, v)) for v in x]
    for got in (gen.log_g(spec, x), [gen.log_g(spec, float(v)) for v in x]):
        np.testing.assert_allclose(got, lg, rtol=1e-14)
    np.testing.assert_allclose(gen.radial_sf(spec, x), sf, rtol=1e-13)
    np.testing.assert_allclose(gen.radial_isf(spec, np.array(sf)), x, rtol=1e-12)
    assert gen.radial_isf(spec, sf[1]) == pytest.approx(1e308, rel=1e-12)


def _tail_evaluations(spec, q, monkeypatch):
    # tail evaluations a point that radial_isf(spec, q) takes
    tails, seen = gen._radial_log_tails, []

    def counted(spec, x):
        seen.append(np.size(x))
        return tails(spec, x)

    monkeypatch.setattr(gen, "_radial_log_tails", counted)
    gen.radial_isf(spec, q)
    monkeypatch.undo()
    return sum(seen) / q.size


FEW_EVALS = [
    make_generator("loghyperbolic", nu=2.0),
    make_generator("loglaplace"),
    make_generator("logslash", nu=4.0),
]


@pytest.mark.parametrize("spec", FEW_EVALS, ids=lambda s: s.label())
def test_halley_isf_needs_few_tail_evaluations(spec, monkeypatch):
    # Newton took ~4.4 evaluations of the tails per point on uniform q;
    # Halley's steps from the closed start, with the short-step accept rule,
    # take 2-3, in a small call as in a large one
    q = 1.0 - np.random.default_rng(7).random(10**4)
    assert _tail_evaluations(spec, q, monkeypatch) <= 3.0
    assert _tail_evaluations(spec, q[:4095], monkeypatch) <= 3.0


@pytest.mark.parametrize("spec", ITERATED, ids=lambda s: s.label())
def test_large_call_roots_match_scalar_calls(spec):
    rng = np.random.default_rng(11)
    q = np.concatenate([rng.random(6000), np.exp(-rng.uniform(0.0, 60.0, 2000))])
    q = q[q > gen.radial_sf(spec, 1e300)]  # logslash(1.01) leaves the doubles early
    x = gen.radial_isf(spec, q)
    for i in range(0, q.size, 97):
        assert x[i] == gen.radial_isf(spec, float(q[i])), q[i]


_FRESH = """
import sys, numpy as np
from blslab import generators as gen
from blslab.generators import make_generator
q = 1.0 - np.random.default_rng(3).random(2 * 4096 + 5)
specs = [make_generator(f, **kw) for f, kw in {specs!r}]
np.save(sys.argv[1], np.stack([gen.radial_isf(s, q) for s in specs]))
"""


def test_no_state_crosses_calls(tmp_path):
    # each root depends on its own q alone: repeating a call, or
    # interleaving it with calls on other specs and sizes, gives the bits
    # of the same call in a fresh interpreter
    q = 1.0 - np.random.default_rng(3).random(2 * 4096 + 5)
    specs = ITERATED[1:4] + ITERATED[-2:]
    for s in specs:
        gen.radial_isf(s, q[: 4096 + 7] ** 2)
    first = [gen.radial_isf(s, q) for s in specs]
    for s, x in zip(reversed(specs), reversed(first)):
        gen.radial_isf(s, q[::-3])
        gen.radial_isf(s, 0.25)
        gen.radial_isf(s, q[: 4096 + 7] ** 3)
        assert np.array_equal(gen.radial_isf(s, q), x)
    # nor on the order of the call
    assert np.array_equal(gen.radial_isf(specs[0], q[::-1]), first[0][::-1])
    args = [(s.id.value, {k: v for k, v in vars(s.params).items() if v is not None})
            for s in specs]
    out = tmp_path / "fresh.npy"
    src = os.path.dirname(os.path.dirname(gen.__file__))  # the blslab under test
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", _FRESH.format(specs=args), str(out)], check=True, env=env)
    assert np.array_equal(np.load(out), np.stack(first))


@settings(PROFILE, max_examples=100)
@given(SPECS, st.lists(QS, min_size=1, max_size=16), st.integers(0, 2**32 - 1))
def test_large_calls_are_monotone_and_invert_sf(spec, qs, seed):
    # calls of 4096 points or more
    lo = gen.radial_sf(spec, 1e300)  # keep every root inside the doubles
    u = np.random.default_rng(seed).random(4096)
    q = np.sort(np.concatenate([[v for v in qs if v > lo], lo + (1.0 - lo) * (1.0 - u)]))
    x = gen.radial_isf(spec, q)
    assert np.all(np.isfinite(x))
    assert np.all(x[:-1] >= x[1:] * (1.0 - 1e-12))
    err = np.abs(gen.radial_sf(spec, x) - q)
    assert np.all(err <= 1e-12)
    assert np.all(err[q <= 1e-3] <= 1e-9 * q[q <= 1e-3])


@pytest.mark.parametrize(
    "spec",
    [
        make_generator("lognormal"),
        make_generator("logt", nu=4.0),
        make_generator("logpvii", xi=2.0, theta=1.0),
        make_generator("loghyperbolic", nu=2.0),
        make_generator("loglaplace"),
        make_generator("logslash", nu=4.0),
        make_generator("logpexp", xi=-0.9),
        make_generator("logpexp", xi=0.5),
        make_generator("loglogistic"),
    ],
    ids=lambda s: s.label(),
)
def test_radial_sf_at_subnormal_x(spec):
    # S(x) = 1 to the double at a subnormal x, quietly: loghyperbolic and
    # logslash took log(1 - S) = log 0 there, which radial_sf never used
    for x in (5e-324, 1e-320):
        assert gen.radial_sf(spec, x) == 1.0
    assert np.all(gen.radial_sf(spec, np.array([5e-324, 1e-320])) == 1.0)
