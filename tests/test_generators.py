"""Generator registry: partition constants, score ratios, parameter rules."""

import math

import numpy as np
import pytest

from blslab import generators as gen
from blslab.errors import DomainError
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


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.label())
def test_partition_closed_vs_numeric(spec):
    zc = gen.partition_closed(spec)
    zn = gen.partition_numeric(spec)
    assert zn == pytest.approx(zc, rel=1e-8)


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


def test_singular_score_ratios_raise_at_zero():
    for spec in [
        make_generator("loglaplace"),
        make_generator("logslash", nu=4.0),
        make_generator("logpexp", xi=0.5),
    ]:
        with pytest.raises(DomainError):
            gen.r(spec, 0.0)
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


def test_characteristic_generator():
    ln = make_generator("lognormal")
    assert ln.has_characteristic_generator
    assert gen.characteristic_generator(ln, 1.0) == pytest.approx(math.exp(0.5))
    for spec in SPECS[1:]:
        assert not spec.has_characteristic_generator
        assert gen.characteristic_generator(spec, 1.0) is None


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


def test_spec_label_and_key():
    spec = make_generator("logpvii", xi=5.0, theta=22.0)
    assert spec.label() == "logpvii(xi=5,theta=22)"
    assert spec.key() == ("logpvii", None, 5.0, 22.0)
    assert make_generator("lognormal").label() == "lognormal"


def test_negative_argument_rejected():
    with pytest.raises(DomainError):
        gen.g(make_generator("lognormal"), -0.1)
    with pytest.raises(DomainError):
        gen.r(make_generator("logt", nu=3.0), np.array([0.5, -2.0]))
