"""Generator registry: partition constants, score ratios, parameter rules."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blslab import distribution as dist
from blslab import generators as gen
from blslab.cli import dispatch
from blslab.datakit import compare_models, default_grid, synthetic_fixture
from blslab.distribution import BLSParams
from blslab.errors import BlsError, DomainError
from blslab.estimation import profile_fit
from blslab.generators import GeneratorId, GeneratorParams, GeneratorSpec, make_generator

# the parameter settings exercised throughout the suite
SPECS = [
    make_generator("lognormal"),
    make_generator("logt", nu=3.0),
    make_generator("logt", nu=7.0),
    make_generator("logpvii", xi=5.0, theta=22.0),
    make_generator("loghyperbolic", nu=2.0),
    make_generator("loglaplace"),
    make_generator("logslash", nu=4.0),
    make_generator("logslash", nu=5.0),
    make_generator("logpexp", xi=0.3),
    make_generator("logpexp", xi=0.5),
    make_generator("loglogistic"),
]


_PARTITION_EDGES = [
    make_generator("logt", nu=0.5),
    make_generator("loghyperbolic", nu=1e-3),
    make_generator("loghyperbolic", nu=700.0),
    make_generator("logslash", nu=90.0),
    make_generator("logpexp", xi=-0.999),
    make_generator("logpexp", xi=1.0),
]


@pytest.mark.parametrize("spec", SPECS + _PARTITION_EDGES, ids=lambda s: s.label())
def test_partition_closed_vs_numeric(spec):
    zc = gen.partition_closed(spec)
    zn = gen.partition_numeric(spec)
    assert zn == pytest.approx(zc, rel=1e-13)


def test_partition_numeric_refuses_a_tail_it_cannot_reach():
    # g(v^2) v^2 ~ v^-0.02 has not decayed by v = 1e149
    with pytest.raises(DomainError, match="beyond 1e149"):
        gen.partition_numeric(make_generator("logpvii", xi=1.01, theta=1e-50))
    # g(v^2) v^2 falls from v ~ 1e-25 on, below the scan's first node at
    # 2^-40: the scan alone returned 1.7e-154 for Z = 7.9e-51
    with pytest.raises(DomainError, match="mass below v = 9.09e-13"):
        gen.partition_numeric(make_generator("logpvii", xi=5.0, theta=1e-50))


def test_partition_known_values():
    assert gen.partition_closed(make_generator("lognormal")) == pytest.approx(
        2 * math.pi
    )
    assert gen.partition_closed(make_generator("loglaplace")) == pytest.approx(math.pi)
    assert gen.partition_closed(make_generator("loglogistic")) == pytest.approx(
        math.pi / 2
    )
    # Student-t partition reduces to 2*pi for every nu
    for nu in [0.5, 1.0, 4.0, 15.0]:
        assert gen.partition_closed(make_generator("logt", nu=nu)) == pytest.approx(
            2 * math.pi, rel=1e-14
        )
    # Pearson VII: pi * theta / (xi - 1)
    assert gen.partition_closed(
        make_generator("logpvii", xi=5.0, theta=22.0)
    ) == pytest.approx(math.pi * 22.0 / 4.0, rel=1e-14)
    # slash: pi * 2^((3-nu)/2) / (nu - 1)
    assert gen.partition_closed(make_generator("logslash", nu=4.0)) == pytest.approx(
        math.pi * 2.0 ** (-0.5) / 3.0, rel=1e-14
    )


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.label())
def test_score_ratio_matches_log_g_derivative(spec):
    # r(x) = d/dx log g(x), checked by central differences
    for x in [0.05, 0.31, 1.7, 4.2, 9.5, 30.0]:
        h = 1e-6 * max(x, 1.0)
        fd = (gen.log_g(spec, x + h) - gen.log_g(spec, x - h)) / (2 * h)
        assert gen.r(spec, x) == pytest.approx(fd, rel=2e-6, abs=1e-10)


def test_score_ratio_closed_forms():
    x = np.array([0.2, 1.0, 5.0])
    assert gen.r(make_generator("lognormal"), x) == pytest.approx([-0.5] * 3)
    nu = 4.0
    assert gen.r(make_generator("logt", nu=nu), x) == pytest.approx(
        -(nu + 2) / (2 * (nu + x))
    )
    assert gen.r(make_generator("logpvii", xi=5.0, theta=22.0), x) == pytest.approx(
        -5.0 / (22.0 + x)
    )
    assert gen.r(make_generator("loglogistic"), x) == pytest.approx(-np.tanh(x / 2))


def test_slash_small_x_series():
    spec = make_generator("logslash", nu=4.0)
    s = 2.5
    # g(0+) = 2^-s / s
    assert gen.g(spec, 1e-12) == pytest.approx(2.0**-s / s, rel=1e-9)
    # r(0+) -> -(nu+1)/(2(nu+3))
    assert gen.r(spec, 1e-12) == pytest.approx(-5.0 / 14.0, rel=1e-6)


def test_slash_series_region_accuracy():
    # the raw ratio -s/x + (x/2)^(s-1) e^(-x/2) / (2 gamma(s, x/2)) suffers
    # catastrophic cancellation for small x, so the oracle is evaluated in
    # 50-digit arithmetic; checked on both sides of the series switch point
    import mpmath as mp

    mp.mp.dps = 50
    spec = make_generator("logslash", nu=4.0)
    s = mp.mpf(5) / 2
    for x in [1e-7, 1e-6, 5e-6, 0.99e-5, 1.01e-5, 1e-4]:
        y = mp.mpf(x) / 2
        lig = mp.gammainc(s, 0, y)
        exact = float(-s / x + (y ** (s - 1)) * mp.e ** (-y) / (2 * lig))
        assert gen.r(spec, x) == pytest.approx(exact, rel=1e-8)
        g_exact = float(lig * mp.mpf(x) ** (-s))
        assert gen.g(spec, x) == pytest.approx(g_exact, rel=1e-10)


@pytest.mark.parametrize(
    "spec",
    [make_generator("loglaplace")]
    + [make_generator("logslash", nu=nu) for nu in (1.0 + 1e-9, 1.5, 4.0, 90.0)],
    ids=lambda s: s.label(),
)
def test_special_function_generators_match_mpmath(spec):
    # g = K0(sqrt(2x)) and g = x^-s gamma(s, x/2), s = (nu + 1)/2, from
    # scipy.special's k0e and gammainc * gamma, against 40-digit mpmath; the
    # grid straddles logslash's series switch at x = 1e-5
    import mpmath as mp

    x = np.concatenate([np.geomspace(1e-8, 1e3, 120), [np.nextafter(1e-5, 0.0), 1e-5]])
    with mp.workdps(40):
        if spec.id is GeneratorId.LAPLACE:
            want = [mp.besselk(0, mp.sqrt(2 * mp.mpf(v))) for v in x]
        else:
            s = mp.mpf(0.5 * (spec.params.nu + 1.0))
            want = [mp.mpf(v) ** -s * mp.gammainc(s, 0, mp.mpf(v) / 2) for v in x]
        log_want = [float(mp.log(w)) for w in want]
        want = [float(w) for w in want]
    np.testing.assert_allclose(gen.g(spec, x), want, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(gen.log_g(spec, x), log_want, rtol=0.0, atol=1e-12)
    assert [gen.g(spec, float(v)) for v in x] == list(gen.g(spec, x))


def test_singular_score_ratios_raise_at_zero():
    for spec in [
        make_generator("loglaplace"),
        make_generator("logslash", nu=4.0),
        make_generator("logpexp", xi=0.5),
    ]:
        with pytest.raises(DomainError):
            gen.r(spec, 0.0)
        with pytest.raises(DomainError):
            gen.dr(spec, 0.0)
    # but not for families regular at 0
    assert gen.r(make_generator("lognormal"), 0.0) == -0.5
    assert gen.r(make_generator("logpexp", xi=-0.3), 0.0) == 0.0
    assert gen.r(make_generator("loglogistic"), 0.0) == 0.0


def test_log_g_stable_for_extreme_arguments():
    # no overflow/underflow surprises in the log form
    assert gen.log_g(make_generator("loglaplace"), 1e6) < -1000
    assert np.isfinite(gen.log_g(make_generator("loglaplace"), 1e6))
    # K0 singularity at the origin: g and log_g agree that g(0) = +inf
    assert gen.log_g(make_generator("loglaplace"), 0.0) == math.inf
    assert gen.g(make_generator("loglaplace"), 0.0) == math.inf
    spec = make_generator("logslash", nu=4.0)
    assert gen.log_g(spec, 1e8) == pytest.approx(
        math.log(math.gamma(2.5)) - 2.5 * math.log(1e8), rel=1e-10
    )
    assert np.isfinite(gen.log_g(make_generator("loghyperbolic", nu=2.0), 1e8))
    # the far tail itself: every family has g(inf) = 0
    for spec in SPECS:
        assert gen.g(spec, math.inf) == 0.0
        assert gen.log_g(spec, math.inf) == -math.inf


def test_g_log_g_consistency():
    x = np.geomspace(1e-3, 50.0, 40)
    for spec in SPECS:
        np.testing.assert_allclose(
            gen.g(spec, x), np.exp(gen.log_g(spec, x)), rtol=1e-12
        )


def test_g_examples():
    assert gen.g(make_generator("lognormal"), 0.0) == 1.0
    assert gen.g(make_generator("lognormal"), 2.0) == pytest.approx(math.exp(-1.0))
    nu = 4.0
    assert gen.g(make_generator("logt", nu=nu), 1.0) == pytest.approx(
        (1 + 1 / nu) ** (-(nu + 2) / 2)
    )
    assert gen.g(make_generator("loglaplace"), 0.0) == np.inf


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.label())
def test_score_ratio_finite_at_huge_arguments(spec):
    # logslash r -> -s/x and loglaplace r -> -1/sqrt(2x); both reach -0 at inf
    out = gen.r(spec, np.array([1e124, 1e300, np.inf]))
    assert np.all(np.isfinite(out)) and np.all(out <= 0.0)
    # r' as well, and without an overflow warning (an error under pytest)
    d = gen.dr(spec, np.array([1e124, 1e300, np.inf]))
    assert np.all(np.isfinite(d)) and d[-1] == 0.0


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.label())
def test_score_ratio_derivative_matches_central_differences(spec):
    xs = list(np.geomspace(1e-6, 1e6, 25))
    if spec.id is GeneratorId.SLASH:
        # both sides of the switch from Kummer's series to the closed form
        switch = max(1.0, (spec.params.nu + 1.0) / 4.0)
        xs += [switch * (1.0 - 1e-9), switch * (1.0 + 1e-9)]
    eps = np.finfo(float).eps
    for x in xs:
        h = 1e-4 * x
        fd = (gen.r(spec, x + h) - gen.r(spec, x - h)) / (2.0 * h)
        # the difference quotient carries a rounding error of ~eps |r| / h
        tol = 1e-6 * abs(fd) + 4.0 * eps * abs(gen.r(spec, x)) / h
        assert abs(gen.dr(spec, x) - fd) <= tol, x


def _k32(z):
    # K_{3/2}(z) = sqrt(pi / 2z) e^-z (1 + 1/z)
    return math.sqrt(math.pi / (2.0 * z)) * math.exp(-z) * (1.0 + 1.0 / z)


def _pexp_mgf(xi, s):
    # sum_k (s^2/4)^k E[X^k] / k!^2 with E[X^k] = 2^(ak) Gamma(a(k+1)) / Gamma(a),
    # a = 1 + xi, summed in 30 digits
    import mpmath as mp

    with mp.workdps(30):
        a, y = mp.mpf(1.0 + xi), mp.mpf(s) ** 2 / 4
        total, k, term = mp.mpf(0), 0, mp.mpf(1)
        while k < 10 or term > total * mp.mpf(10) ** -32:
            term = mp.exp(k * mp.log(y * 2**a) + mp.loggamma(a * (k + 1)) - 2 * mp.loggamma(k + 1))
            total, k = total + term, k + 1
        return float(total / mp.gamma(a))


def _logistic_mgf(s):
    # (2 pi / Z) int_0^inf I0(s v) g(v^2) v dv with Z = pi / 2, in 30 digits
    import mpmath as mp

    with mp.workdps(30):
        f = lambda v: mp.besseli(0, s * v) * mp.exp(-v * v) / (1 + mp.exp(-v * v)) ** 2 * v
        return float(4 * mp.quad(f, [0, 1, 3, 6, mp.inf]))


# (spec, its tail rate, vartheta(s^2) = E[e^(s Z1)] in closed form or 30 digits)
_MGF_ORACLES = [
    (make_generator("lognormal"), math.inf, lambda s: math.exp(0.5 * s * s)),
    (make_generator("loglaplace"), math.sqrt(2.0), lambda s: 1.0 / (1.0 - 0.5 * s * s)),
    (
        make_generator("loghyperbolic", nu=2.0),
        2.0,
        lambda s: (4.0 / (4.0 - s * s)) ** 0.75 * _k32(math.sqrt(4.0 - s * s)) / _k32(2.0),
    ),
    (make_generator("logpexp", xi=-0.5), math.inf, lambda s: _pexp_mgf(-0.5, s)),
    (make_generator("logpexp", xi=0.5), math.inf, lambda s: _pexp_mgf(0.5, s)),
    (make_generator("loglogistic"), math.inf, _logistic_mgf),
]


@pytest.mark.parametrize("spec,rate,mgf", _MGF_ORACLES, ids=[o[0].label() for o in _MGF_ORACLES])
def test_characteristic_generator(spec, rate, mgf):
    # vartheta(x) = E[e^(sqrt(x) Z1)] within 1e-12 relative of its oracle up
    # to 0.99 of the tail rate, and within 1e-10 closer to it
    scale = min(rate, 3.0)
    for frac in (1e-6, 0.1, 0.5, 0.9, 0.99, 0.999, 0.99999):
        s = frac * scale
        got, want = gen.characteristic_generator(spec, s * s), mgf(s)
        tol = 1e-12 if frac <= 0.99 or rate == math.inf else 1e-10
        assert got == pytest.approx(want, rel=tol), (s, got, want)
    assert gen.characteristic_generator(spec, 0.0) == 1.0
    if rate < math.inf:  # None exactly where sqrt(x) reaches the rate
        for x in (rate * rate, float(np.nextafter(rate * rate, math.inf)), 4.0 * rate * rate):
            got = gen.characteristic_generator(spec, x)
            assert got is None if math.sqrt(x) >= rate else 1.0 < got < math.inf


@pytest.mark.parametrize("spec", [s for s in SPECS if gen._tail_rate(s) == 0.0], ids=lambda s: s.label())
def test_characteristic_generator_is_none_for_power_tails(spec):
    assert gen.characteristic_generator(spec, 0.0) == 1.0
    for x in (5e-324, 1e-300, 1e-6, 1.0, 1e300):
        assert gen.characteristic_generator(spec, x) is None


def test_parameter_validation():
    with pytest.raises(DomainError):
        make_generator("logt")  # missing nu
    with pytest.raises(DomainError):
        make_generator("logt", nu=0.0)
    with pytest.raises(DomainError):
        make_generator("logpvii", xi=1.0, theta=5.0)
    with pytest.raises(DomainError):
        make_generator("logpvii", xi=2.0, theta=0.0)
    with pytest.raises(DomainError):
        make_generator("logslash", nu=1.0)
    with pytest.raises(DomainError):
        make_generator("logpexp", xi=1.5)
    with pytest.raises(DomainError):
        make_generator("logpexp", xi=-1.0)
    with pytest.raises(DomainError):
        make_generator("lognormal", nu=3.0)  # stray parameter
    with pytest.raises(DomainError):
        make_generator("gaussian")  # unknown family name
    # xi = 1 is the admissible boundary for logpexp
    assert make_generator("logpexp", xi=1.0).params.xi == 1.0
    # an unbounded range still needs a finite value
    for family, kw in [
        ("logt", {"nu": math.inf}),
        ("loghyperbolic", {"nu": math.inf}),
        ("logslash", {"nu": math.inf}),
        ("logpvii", {"xi": math.inf, "theta": 5.0}),
        ("logpvii", {"xi": 2.0, "theta": math.inf}),
    ]:
        with pytest.raises(DomainError, match="finite"):
            make_generator(family, **kw)


@pytest.mark.parametrize("nu", [0.05, 1.0, 11.0, 13.0, 15.0, 1e5, 1e308])
def test_logt_partition_is_two_pi_exactly(nu):
    # pi * (theta / (xi - 1)) with logt's xi - 1 = nu/2 exactly: no rounding
    # and no overflow of pi * theta
    assert gen.partition_closed(make_generator("logt", nu=nu)) == 2.0 * math.pi


def test_logt_density_at_huge_nu_is_the_lognormal_limit():
    th = BLSParams(1.0, 2.0, 0.5, 0.3, 0.4)
    big, ln = make_generator("logt", nu=1e308), make_generator("lognormal")
    for t in [(1.2, 2.1), (0.5, 1.0), (3.0, 4.0)]:
        assert dist.joint_pdf(th, big, *t) == pytest.approx(dist.joint_pdf(th, ln, *t), rel=1e-12)


_LOOKUPS = {
    "make_generator": make_generator,
    "GeneratorSpec": GeneratorSpec,
    "profile_fit": lambda f: profile_fit(synthetic_fixture().pairs, f, [GeneratorParams(nu=4.0)]),
    "compare_models": lambda f: compare_models(synthetic_fixture(), families=[f]),
    "default_grid": default_grid,
}


@pytest.mark.parametrize("lookup", sorted(_LOOKUPS))
@pytest.mark.parametrize("family", ["nope", "LOGT", None, 3, ["logt"]])
def test_unknown_family_is_a_domain_error_everywhere(lookup, family):
    with pytest.raises(DomainError, match="unknown family"):
        _LOOKUPS[lookup](family)


def test_family_name_and_id_are_interchangeable():
    assert GeneratorSpec("logt", GeneratorParams(nu=4.0)) == make_generator(
        GeneratorId.STUDENT_T, nu=4.0
    )
    assert GeneratorSpec("logt", GeneratorParams(nu=4.0)).id is GeneratorId.STUDENT_T
    assert default_grid("logt") == default_grid(GeneratorId.STUDENT_T)
    assert len(default_grid("logt")) == 14
    assert default_grid("lognormal") is None


def test_cli_family_names_cover_all_eight():
    assert sorted(gen.FAMILY_NAMES) == [
        "loghyperbolic",
        "loglaplace",
        "loglogistic",
        "lognormal",
        "logpexp",
        "logpvii",
        "logslash",
        "logt",
    ]
    assert gen.FAMILY_NAMES["logt"] is GeneratorId.STUDENT_T


def test_spec_label():
    spec = make_generator("logpvii", xi=5.0, theta=22.0)
    assert spec.label() == "logpvii(xi=5,theta=22)"
    assert make_generator("lognormal").label() == "lognormal"


def test_negative_argument_rejected():
    with pytest.raises(DomainError):
        gen.g(make_generator("lognormal"), -0.1)
    with pytest.raises(DomainError):
        gen.r(make_generator("logt", nu=3.0), np.array([0.5, -2.0]))


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.label())
def test_nan_argument_rejected(spec):
    # NaN < 0 is false, so a plain "x < 0" check lets NaN through
    for fn in (gen.log_g, gen.g, gen.r, gen.dr, gen.radial_sf, dist.mahalanobis_pdf):
        with pytest.raises(DomainError):
            fn(spec, math.nan)
        with pytest.raises(DomainError):
            fn(spec, np.array([1.0, math.nan]))


def test_logpexp_reaches_minus_inf_without_overflow_warning():
    # x^(1/(1+xi)) overflows at xi = -0.9, x = 1e300: log g and r are -inf
    spec = make_generator("logpexp", xi=-0.9)
    assert gen.log_g(spec, 1e300) == -math.inf
    assert gen.r(spec, 1e300) == -math.inf
    assert gen.g(spec, 1e300) == 0.0
    assert np.all(gen.log_g(spec, np.array([1e300, math.inf])) == -math.inf)


_SWITCH = gen._SLASH_SERIES_X
_X_MAX = float(np.finfo(float).max)
_EDGE_POINTS = [
    0.0,
    5e-324,
    np.nextafter(_SWITCH, 0.0),
    _SWITCH,
    np.nextafter(_SWITCH, 1.0),
    1e300,
    1e308,
    _X_MAX,
    math.inf,
]
# the float branches of log_g besides logslash's switch: x/theta overflows
# for logt and logpvii with theta < 1 near the top of the doubles, and
# x^(1/(1+xi)) for logpexp with xi < 0 from x ~ 1e31 (xi = -0.9)
_BRANCH_SPECS = [
    make_generator("logt", nu=0.5),
    make_generator("logpvii", xi=2.0, theta=1e-3),
    make_generator("logpexp", xi=-0.9),
]
_THETA = BLSParams(1.0, 2.0, 0.5, 0.3, 0.4)


def _same(a, b) -> bool:
    # bitwise: +-0, inf and NaN included
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def _accepted(lo, hi):
    """Values a parameter rule lo < v <= hi accepts: its two ends (the double
    just inside an open lower end) and values between, log-uniform where
    the range spans many decades."""
    ends = st.sampled_from([float(np.nextafter(lo, math.inf)), hi])
    if lo > 0.0 and hi > 1e6 * lo:
        inner = st.floats(math.log(lo), math.log(hi)).map(lambda t: min(math.exp(t), hi))
    else:
        inner = st.floats(lo, hi, exclude_min=True, allow_subnormal=False)
    return st.one_of(ends, inner.filter(lambda v: lo < v <= hi))


ACCEPTED_SPECS = st.one_of(
    [
        st.fixed_dictionaries({n: _accepted(lo, hi) for n, (lo, hi) in rules.items()}).map(
            lambda kw, gid=gid: make_generator(gid, **kw)
        )
        for gid, rules in gen._PARAM_RULES.items()
    ]
)


def _check_paths_agree(spec, x, t1, t2):
    # a 0-d input gives a float bitwise equal to the 1-element array result,
    # or the DomainError that the array raises, for every input type,
    # without a RuntimeWarning
    cases = [
        (gen.log_g, (spec,), (x,)),
        (gen.g, (spec,), (x,)),
        (dist.mahalanobis_pdf, (spec,), (x,)),
        (dist.joint_log_pdf, (_THETA, spec), (t1, t2)),
        (dist.joint_pdf, (_THETA, spec), (t1, t2)),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for fn, head, pts in cases:
            kinds = [float, np.float64, np.array]
            if all(float(p).is_integer() for p in pts):
                kinds.append(int)
            try:
                ref = fn(*head, *(np.array([p]) for p in pts))
            except DomainError:
                for kind in kinds:
                    with pytest.raises(DomainError):
                        fn(*head, *(kind(p) for p in pts))
                continue
            assert isinstance(ref, np.ndarray) and ref.shape == (1,)
            for kind in kinds:
                got = fn(*head, *(kind(p) for p in pts))
                assert type(got) is float, (fn.__name__, kind)
                assert _same(got, ref[0]), (fn.__name__, kind, pts)


@pytest.mark.parametrize("x", _EDGE_POINTS)
@pytest.mark.parametrize("spec", SPECS + _BRANCH_SPECS, ids=lambda s: s.label())
def test_scalar_and_array_paths_agree_at_edges(spec, x):
    # (1, 2) is the centre of _THETA, and t1 = 5e-324 puts a heavy tail's
    # density beyond the doubles
    _check_paths_agree(spec, x, 1.0, 2.0)
    _check_paths_agree(spec, x, 5e-324, 1.0)


def test_joint_pdf_beyond_the_doubles_raises_on_both_paths():
    spec = make_generator("logslash", nu=4.0)
    for t1 in (5e-324, np.float64(5e-324), np.array(5e-324), np.array([5e-324, 1.0])):
        with pytest.raises(DomainError, match="exceeds the double range"):
            dist.joint_pdf(_THETA, spec, t1, 1.0)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    ACCEPTED_SPECS,
    st.one_of(
        st.sampled_from(_EDGE_POINTS),
        st.floats(min_value=0.0, max_value=1e300),
        st.floats(min_value=-8.0, max_value=3.0).map(lambda e: 10.0**e),
        st.integers(min_value=0, max_value=10**6).map(float),
    ),
    st.floats(min_value=-6.0, max_value=6.0),
)
def test_scalar_and_array_paths_agree(spec, x, z):
    # every family, with its extra parameters drawn from _PARAM_RULES
    _check_paths_agree(spec, x, math.exp(z), 2.0 * math.exp(-0.5 * z))


# r and r' at x = 0 (None where the ratio is singular there) and at x = inf
_SCORE_EDGES = {
    "lognormal": ((-0.5, 0.0), (-0.5, 0.0)),
    "logt(nu=3)": ((-5.0 / 6.0, 2.5 / 9.0), (0.0, 0.0)),
    "logt(nu=7)": ((-9.0 / 14.0, 4.5 / 49.0), (0.0, 0.0)),
    "logpvii(xi=5,theta=22)": ((-5.0 / 22.0, 5.0 / 484.0), (0.0, 0.0)),
    "loghyperbolic(nu=2)": ((-1.0, 0.5), (0.0, 0.0)),
    "loglaplace": (None, (0.0, 0.0)),
    "logslash(nu=4)": (None, (0.0, 0.0)),
    "logslash(nu=5)": (None, (0.0, 0.0)),
    "logpexp(xi=0.3)": (None, (0.0, 0.0)),
    "logpexp(xi=0.5)": (None, (0.0, 0.0)),
    "loglogistic": ((0.0, -0.5), (-1.0, 0.0)),
}


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.label())
def test_kernels_at_the_ends_of_the_range(spec):
    at_zero, at_inf = _SCORE_EDGES[spec.label()]
    for fn, want in zip((gen.r, gen.dr), at_inf):
        assert fn(spec, math.inf) == pytest.approx(want, rel=1e-15, abs=0.0)
    if at_zero is None:
        for fn in (gen.r, gen.dr):
            with pytest.raises(DomainError, match="singular"):
                fn(spec, 0.0)
            with pytest.raises(DomainError, match="singular"):
                fn(spec, np.array([1.0, 0.0]))
    else:
        for fn, want in zip((gen.r, gen.dr), at_zero):
            assert fn(spec, 0.0) == pytest.approx(want, rel=1e-15, abs=0.0)
    assert gen.radial_sf(spec, 0.0) == 1.0 and gen.radial_sf(spec, math.inf) == 0.0
    assert gen.g(spec, math.inf) == 0.0


# both sides of logslash's switches (1e-5 for g, max(1, s/2) for r and r'),
# the subnormals and the top of the doubles
_GRID = [5e-324, 1e-300, 1e-8, 1e-5, 0.3, 1.0, 1.25, 1.5, 7.75, 30.0, 1e3, 1e6, 1e124, 1e300,
         math.inf]


@pytest.mark.parametrize("fn", [gen.r, gen.dr, gen.g, gen.radial_sf], ids=lambda f: f.__name__)
@pytest.mark.parametrize(
    "spec", SPECS + [make_generator("logpexp", xi=-0.9)], ids=lambda s: s.label()
)
def test_float_and_array_calls_agree(spec, fn):
    # a float, a 0-d array and a 1-element array give the bits of that
    # point's element of a vector, whether one expression serves both (r, r',
    # radial_sf) or g takes its float path, without a RuntimeWarning (an
    # error under the suite's filter)
    regular = fn not in (gen.r, gen.dr) or _SCORE_EDGES.get(spec.label(), (0,))[0] is not None
    xs = np.array(([0.0] if regular else []) + _GRID)
    ref = fn(spec, xs)
    for x, want in zip(xs, ref):
        for arg in (float(x), np.float64(x), np.array(x)):
            got = fn(spec, arg)
            assert type(got) is float and _same(got, want), (x, type(arg))
        one = fn(spec, np.array([x]))
        assert one.shape == (1,) and _same(one[0], want), x


def test_loglaplace_score_limits_near_the_subnormals():
    # r ~ -1 / (2x log(1/x)) and r' ~ 1 / (2x^2 log(1/x)) leave the doubles
    # as x -> 0: r is -inf at the smallest subnormal, r' is +inf from x ~
    # 1e-155, quietly, and a float and an array agree
    spec = make_generator("loglaplace")
    xs = [5e-324, 1e-310, 1e-300, 1e-200]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        r, d = gen.r(spec, np.array(xs)), gen.dr(spec, np.array(xs))
        for i, x in enumerate(xs):
            assert _same(gen.r(spec, x), r[i]) and _same(gen.dr(spec, x), d[i])
    assert r[0] == -math.inf and np.all(np.isfinite(r[1:])) and np.all(r[1:] < -1e197)
    assert np.all(d == math.inf)
    # the same expression where r' is a double
    x = np.array([1e-100, 1e-5, 1.0])
    rx = gen.r(spec, x)
    assert _same(gen.dr(spec, x), (0.5 - rx) / x - rx * rx)


def test_loglaplace_beyond_half_the_top_of_the_doubles():
    # u = sqrt(2x) overflowed in 2x past X_MAX/2: log g was -inf, r was -0.0
    # for a float, and the array r and r' raised an overflow warning. Now u
    # is sqrt(2) sqrt(x) there, quietly, and a float and an array agree
    import mpmath as mp

    spec = make_generator("loglaplace")
    xs = [1e308, 1.7e308, float(np.finfo(float).max)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = [fn(spec, np.array(xs)) for fn in (gen.log_g, gen.r, gen.dr)]
        for i, x in enumerate(xs):
            assert all(_same(fn(spec, x), g[i]) for fn, g in zip((gen.log_g, gen.r, gen.dr), got))
    with mp.workdps(40):
        us = [mp.sqrt(2 * mp.mpf(x)) for x in xs]
        want_log_g = [float(mp.log(mp.besselk(0, u))) for u in us]
        want_r = [float(-mp.besselk(1, u) / (u * mp.besselk(0, u))) for u in us]
    assert got[0] == pytest.approx(want_log_g, rel=1e-15)  # ~ -1.84e154 at 1.7e308
    assert got[1] == pytest.approx(want_r, rel=1e-14)  # ~ -5.4e-155
    assert np.all(np.abs(got[2]) < 1e-300)  # r' ~ 1 / (u x) underflows


def test_logt_score_where_theta_plus_x_overflows():
    # at nu = 1e308, theta + x overflows from x ~ 8e307; r = -xi / (theta + x)
    # and r' = xi / (theta + x)^2 are still far from 0 there (r ~ -0.185 at
    # 1.7e308), quietly, and a float and an array agree
    import mpmath as mp

    spec = make_generator("logt", nu=1e308)
    xs = [1e300, 1e308, 1.7e308, float(np.finfo(float).max)]
    with mp.workdps(40):
        xi, theta = mp.mpf(1e308) / 2 + 1, mp.mpf(1e308)
        want_r = [float(-xi / (theta + mp.mpf(x))) for x in xs]
        want_dr = [float(xi / (theta + mp.mpf(x)) ** 2) for x in xs]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        r, d = gen.r(spec, np.array(xs)), gen.dr(spec, np.array(xs))
        for i, x in enumerate(xs):
            assert _same(gen.r(spec, x), r[i]) and _same(gen.dr(spec, x), d[i])
    np.testing.assert_allclose(r, want_r, rtol=1e-15)
    # r' is subnormal there, with ~15 significant digits
    np.testing.assert_allclose(d, want_dr, rtol=1e-13)
    # where theta + x is a double, the expressions of every smaller nu
    assert _same(r[0], -(5e307 + 1.0) / (1e308 + 1e300))
    assert gen.r(spec, math.inf) == 0.0 and gen.dr(spec, math.inf) == 0.0


# x: the ends of [0, inf] and the subnormals at every example, and drawn
# log-uniform values up to 1e300
_EDGE_X = [0.0, 5e-324, 1e-310, 1e-300, 1e300, math.inf]
KERNEL_X = st.floats(math.log(5e-324), math.log(1e300)).map(math.exp)
_WIDE = 1e-3  # sigma1 of the joint_pdf check, so that e^(sigma1 sqrt(x)) spans many x


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    ACCEPTED_SPECS,
    st.lists(KERNEL_X, max_size=6),
    st.floats(math.log(1e-300), 0.0).map(math.exp),
)
def test_every_kernel_is_finite_or_its_limit_across_the_accepted_ranges(spec, xs, q):
    # a float and a 1-element array give the same bits, never NaN and never a
    # RuntimeWarning; log g is +inf only at loglaplace's x = 0, and the
    # ratios raise DomainError only where they are singular at x = 0
    singular = spec.id in (GeneratorId.LAPLACE, GeneratorId.SLASH) or (
        spec.id is GeneratorId.POWER_EXP and spec.params.xi > 0.0
    )
    theta = BLSParams(1.0, 1.0, _WIDE, 1.0, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert 0.0 < gen.partition_closed(spec) < math.inf
        for x in _EDGE_X + xs:
            for fn in (gen.log_g, gen.g, gen.r, gen.dr, gen.radial_sf):
                if fn in (gen.r, gen.dr) and singular and x == 0.0:
                    with pytest.raises(DomainError, match="singular"):
                        fn(spec, x)
                    continue
                got, arr = fn(spec, x), fn(spec, np.array([x]))
                assert not math.isnan(got) and _same(got, arr[0]), (fn.__name__, x, got, arr)
                if fn is gen.log_g and got == math.inf:
                    assert spec.id is GeneratorId.LAPLACE and x == 0.0
                if fn is gen.radial_sf:
                    assert 0.0 <= got <= 1.0
            if x <= 1e11:  # t1 = e^(sigma1 sqrt(x)) is a double
                pdf = dist.joint_pdf(theta, spec, math.exp(_WIDE * math.sqrt(x)), 1.0)
                assert 0.0 <= pdf < math.inf or (pdf == math.inf and spec.id is GeneratorId.LAPLACE)
        try:
            root = gen.radial_isf(spec, q)
        except DomainError:
            pass  # the quantile is past the doubles
        else:
            assert 0.0 <= root < math.inf


# the fit kernel's branch points: logslash's series switch at 1e-5 and its
# score switch at max(1, s/2) (drawn beside KERNEL_X, and added per spec),
# and loglaplace's sqrt(2) sqrt(x) above X_MAX/2
_FIT_X = st.one_of(
    KERNEL_X,
    st.sampled_from(_EDGE_POINTS[1:] + [0.5 * _X_MAX, float(np.nextafter(0.5 * _X_MAX, math.inf))]),
    st.floats(0.5, 50.0),
)


def _score_switch_points(spec):
    # logslash's score switch x = max(1, s/2) and the double below it
    if spec.id is not GeneratorId.SLASH:
        return []
    at = max(1.0, 0.25 * (spec.params.nu + 1.0))
    return [float(np.nextafter(at, 0.0)), at]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(ACCEPTED_SPECS, st.lists(_FIT_X, min_size=1, max_size=8))
def test_fit_kernel_has_the_bits_of_log_g_r_and_dr(spec, xs):
    # the fit's one kernel pass gives every family's log g, r and r' bit for
    # bit, -0 and the infinities included, without a RuntimeWarning
    x = np.array(xs + _score_switch_points(spec))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        value, derivs = gen._fit_kernel(spec, x)
        got = (value, *derivs())
        want = (gen.log_g(spec, x), gen.r(spec, x), gen.dr(spec, x))
    for name, a, b in zip(("log g", "r", "r'"), got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (name, x, a, b)


@pytest.mark.parametrize("bad", [0.0, math.nan, -1.0])
@pytest.mark.parametrize("spec", SPECS + _BRANCH_SPECS, ids=lambda s: s.label())
def test_fit_kernel_raises_where_r_does(spec, bad):
    # the DomainError of r for x = 0 where r is singular, and for NaN and
    # x < 0; elsewhere the kernel's values at 0 are r's and r''s
    x = np.array([1.0, bad, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            want = gen.r(spec, x), gen.dr(spec, x)
        except DomainError as e:
            with pytest.raises(DomainError, match=re.escape(str(e))):
                gen._fit_kernel(spec, x)[1]()
            return
        got = gen._fit_kernel(spec, x)[1]()
    assert bad == 0.0
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


_SCALE = st.floats(math.log(5e-324), math.log(1e3)).map(lambda t: min(math.exp(t), 1e3))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    ACCEPTED_SPECS,
    _SCALE,
    _SCALE,
    st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
    _SCALE,
)
def test_moments_are_finite_or_none_where_the_tail_rate_forbids_them(spec, s1, s2, rho, order):
    # moment, vartheta and the correlation give a finite positive value
    # (|value| <= 1 for the correlation), None exactly where the tail rate
    # forbids the moment, or a BlsError
    rate, theta, x = gen._tail_rate(spec), BLSParams(1.0, 1.0, s1, s2, rho), (s1 * order) ** 2
    calls = [
        (lambda: dist.moment(theta, spec, 1, order), rate == 0.0 or s1 * order >= rate),
        (lambda: dist.moment(theta, spec, 2, order), rate == 0.0 or s2 * order >= rate),
        (lambda: gen.characteristic_generator(spec, 0.0), False),
        (lambda: gen.characteristic_generator(spec, x), x > 0.0 and math.sqrt(x) >= rate),
        (lambda: dist.correlation(theta, spec), 2.0 * max(s1, s2) >= rate),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for i, (call, forbidden) in enumerate(calls):
            try:
                got = call()
            except BlsError:
                assert not forbidden, i
                continue
            if forbidden:
                assert got is None, i
            elif i == 4:
                assert -1.0 <= got <= 1.0, got
            else:
                assert 0.0 < got < math.inf, (i, got)


def test_log_mgf_quadrature_is_the_normal_law_at_every_scale():
    # logpexp(xi = 0) has lognormal's generator but takes the quadrature:
    # L(s) = s^2 / 2 from s = 1e-150, where s^2 nears the bottom of the
    # doubles, to 1e6, where the integrand's peak is a millionth as wide as
    # its distance from 0
    spec = make_generator("logpexp", xi=0.0)
    s = 10.0 ** np.arange(-150.0, 6.5, 0.5)
    assert np.allclose(gen._log_mgf(spec, s), 0.5 * s * s, rtol=1e-14, atol=0.0)


_TINY = float(np.finfo(float).tiny)


def _up(v):
    return float(np.nextafter(v, math.inf))


def _down(v):
    return float(np.nextafter(v, -math.inf))


# each end of _PARAM_RULES: the last value accepted and the first past it
_ENDS = [
    ("logt", {"nu": _up(1e-154)}, {"nu": 1e-154}),
    ("logt", {"nu": 1e308}, {"nu": _up(1e308)}),
    ("logpvii", {"xi": 1e100, "theta": 1.0}, {"xi": _up(1e100), "theta": 1.0}),
    ("logpvii", {"xi": 2.0, "theta": _up(1e-100)}, {"xi": 2.0, "theta": 1e-100}),
    ("logpvii", {"xi": 2.0, "theta": 1e100}, {"xi": 2.0, "theta": _up(1e100)}),
    ("loghyperbolic", {"nu": _up(1e-153)}, {"nu": 1e-153}),
    ("loghyperbolic", {"nu": 700.0}, {"nu": _up(700.0)}),
    ("logslash", {"nu": _up(1.0 + 1e-12)}, {"nu": 1.0 + 1e-12}),
    ("logslash", {"nu": 90.0}, {"nu": _up(90.0)}),
    ("logpexp", {"xi": _up(-0.9991)}, {"xi": -0.9991}),
    # 0 and the normal doubles are accepted, the subnormals are not
    ("logpexp", {"xi": _TINY}, {"xi": _down(_TINY)}),
    ("logpexp", {"xi": -_TINY}, {"xi": -5e-324}),
]


@pytest.mark.parametrize("family, last, past", _ENDS, ids=lambda v: str(v))
def test_each_end_accepts_the_last_value_and_rejects_the_next(family, last, past, capsys):
    spec = make_generator(family, **last)
    assert all(getattr(spec.params, n) == v for n, v in last.items())
    with pytest.raises(DomainError, match="finite, non-subnormal"):
        make_generator(family, **past)
    flags = {"nu": "--nu", "xi": "--xi", "theta": "--theta-gen"}
    argv = ["eval", "--model", family, "--theta", "1,2,0.5,0.3,0.4", "--pdf", "1,2"]
    argv += [f"{flags[name]}={val!r}" for name, val in past.items()]
    assert dispatch(argv) == 1
    assert "requires a finite, non-subnormal" in capsys.readouterr().err


_LADDER_SPECS = [make_generator(family, **last) for family, last, _ in _ENDS] + [
    make_generator("lognormal"), make_generator("logt", nu=1e-10), make_generator("logt", nu=1e300),
    make_generator("logpvii", xi=5.0, theta=1e-99), make_generator("loghyperbolic", nu=1e-150),
    make_generator("loglaplace"), make_generator("logslash", nu=1.01), make_generator("logpexp", xi=-0.999),
    make_generator("logpexp", xi=1.0), make_generator("loglogistic"),
]


@pytest.mark.parametrize("spec", _LADDER_SPECS, ids=lambda s: s.label())
def test_tail_ladder_is_finite_and_non_decreasing_to_the_last_normal_level(spec):
    # the angle rule's tail breaks sqrt(isf(2^-k)), k = 1 ... 1022, in order,
    # as far as their radii stay below sqrt(1e300) (none for logt(1e-154))
    ladder = spec._tail_ladder
    assert np.all(ladder**2 <= 1e300)
    assert np.all(np.isfinite(ladder)) and np.all(np.diff(ladder) >= 0.0)
    if spec.id in (GeneratorId.LOGNORMAL, GeneratorId.LAPLACE, GeneratorId.LOGISTIC):
        assert len(ladder) == 1022


def test_tail_ladder_matches_closed_quantiles_and_stops_at_the_cutoff():
    # lognormal: S(x) = e^(-x/2), so the rung at 2^-k is sqrt(2 k log 2);
    # logt(1): S(x) = 1 / (1 + x), so it is sqrt(4^k - 1), and 4^k - 1 stays
    # below 1e300 up to k = 498 (4^499 = 2.7e300)
    k = np.arange(1, 1023, dtype=float)
    ln = make_generator("lognormal")._tail_ladder
    np.testing.assert_allclose(ln, np.sqrt(2.0 * k * math.log(2.0)), rtol=1e-14, atol=0.0)
    t1 = make_generator("logt", nu=1.0)._tail_ladder
    assert len(t1) == 498
    np.testing.assert_allclose(t1, np.sqrt(np.exp2(2.0 * k[:498]) - 1.0), rtol=1e-12, atol=0.0)


def test_tail_ladder_is_built_once_per_spec(monkeypatch):
    calls = []
    isf = gen.radial_isf
    monkeypatch.setattr(gen, "radial_isf", lambda *a: calls.append(a) or isf(*a))
    spec = make_generator("logslash", nu=4.0)
    theta = BLSParams(1.0, 2.0, 0.5, 0.3, 0.4)
    dist.joint_cdf(theta, spec, 1.3, 2.6)
    dist.joint_cdf(theta, spec, 0.2, 0.9)
    dist.marginal_quantile(theta, spec, 1, 1e-6)
    assert len(calls) == 1
