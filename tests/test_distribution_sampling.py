"""Sampler checks: determinism, radial law, angular uniformity, joint shape.

The polar construction implies two distribution-level facts that any correct
sampler must reproduce: the squared standardized radius follows the
Mahalanobis law, and the angle of the spherical coordinates is uniform and
independent of the radius. Both are tested without reference to how the
draws are produced.
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

THETA = BLSParams(1.0, 2.0, 0.5, 0.7, 0.5)


def spherical_coords(theta, x):
    """Recover (radius^2, angle) of the spherical standardized components."""
    z1 = (np.log(x[:, 0]) - math.log(theta.eta1)) / theta.sigma1
    w2 = (np.log(x[:, 1]) - math.log(theta.eta2)) / theta.sigma2
    z2 = (w2 - theta.rho * z1) / math.sqrt(1.0 - theta.rho**2)
    return z1 * z1 + z2 * z2, np.arctan2(z2, z1)


def test_shape_positivity_determinism():
    x = dist.sample(THETA, LN, 1000, seed=11)
    assert x.shape == (1000, 2)
    assert np.all(x > 0.0)
    y = dist.sample(THETA, LN, 1000, seed=11)
    assert np.array_equal(x, y)
    z = dist.sample(THETA, LN, 1000, seed=12)
    assert not np.array_equal(x, z)


def test_sample_size_validation():
    with pytest.raises(DomainError):
        dist.sample(THETA, LN, 0, seed=1)
    with pytest.raises(DomainError):
        dist.sample(THETA, LN, -5, seed=1)


def test_seed_numpy_rejects_is_a_domain_error():
    # numpy's own ValueError / TypeError, inside the error contract
    for seed in (-1, 1.5, "7", [1, -2]):
        with pytest.raises(DomainError, match="seed"):
            dist.sample(THETA, LN, 5, seed=seed)
    # every seed numpy takes still draws, a Generator included
    for seed in (None, 0, 2**70, np.uint64(5), [1, 2]):
        assert dist.sample(THETA, LN, 5, seed=seed).shape == (5, 2)
    x = dist.sample(THETA, LN, 5, seed=np.random.default_rng(7))
    assert np.array_equal(x, dist.sample(THETA, LN, 5, seed=7))


@pytest.mark.parametrize(
    "spec",
    [make_generator("logslash", nu=1.5), make_generator("logt", nu=1.0),
     make_generator("logt", nu=0.1), make_generator("loghyperbolic", nu=1e-150)],
    ids=lambda s: s.label(),
)
def test_draw_of_t_beyond_double_range_is_domain_error(spec):
    # the radial draws are doubles, but e^(sigma z) overflows to inf or
    # underflows to 0 in these heavy tails at sigma = 0.5: logslash(1.5) gave
    # 2305 inf and 2369 zeros here, with numpy's overflow warning
    with pytest.raises(DomainError, match="beyond the double range"):
        dist.sample(THETA, spec, 100_000, seed=2024)


def test_lognormal_radial_ks():
    th = BLSParams(1.0, 2.0, 0.5, 0.7, 0.95)
    x = dist.sample(th, LN, 20000, seed=42)
    d2, _ = spherical_coords(th, x)
    res = stats.kstest(d2, lambda v: -np.expm1(-v / 2.0))
    assert res.pvalue > 0.01


def test_logt_radial_ks():
    x = dist.sample(THETA, LT4, 20000, seed=43)
    d2, _ = spherical_coords(THETA, x)
    res = stats.kstest(d2, lambda v: stats.f.cdf(v / 2.0, 2, 4))
    assert res.pvalue > 0.01


def test_angle_uniform_lognormal():
    x = dist.sample(THETA, LN, 20000, seed=44)
    _, ang = spherical_coords(THETA, x)
    res = stats.kstest(ang, stats.uniform(loc=-math.pi, scale=2 * math.pi).cdf)
    assert res.pvalue > 0.01


def test_marginal_component_is_student_t():
    # standardized first log-component of the logt(4) law is Student-t(4)
    x = dist.sample(THETA, LT4, 20000, seed=45)
    z1 = (np.log(x[:, 0]) - math.log(THETA.eta1)) / THETA.sigma1
    res = stats.kstest(z1, stats.t(df=4).cdf)
    assert res.pvalue > 0.01


def test_lognormal_log_correlation():
    th = BLSParams(1.0, 2.0, 0.5, 0.7, 0.95)
    x = dist.sample(th, LN, 20000, seed=46)
    corr = np.corrcoef(np.log(x[:, 0]), np.log(x[:, 1]))[0, 1]
    assert corr == pytest.approx(0.95, abs=0.01)


def test_lognormal_rectangular_histogram_chi2():
    # joint 5 x 5 cell-count test against Phi-product probabilities, rho = 0
    th = BLSParams(1.0, 2.0, 0.5, 0.7, 0.0)
    n = 20000
    x = dist.sample(th, LN, n, seed=47)
    zgrid = np.array([-np.inf, -0.8, -0.25, 0.25, 0.8, np.inf])
    p1 = np.diff(stats.norm.cdf(zgrid))
    z1 = (np.log(x[:, 0]) - math.log(th.eta1)) / th.sigma1
    z2 = (np.log(x[:, 1]) - math.log(th.eta2)) / th.sigma2
    counts, _, _ = np.histogram2d(z1, z2, bins=[zgrid, zgrid])
    expected = n * np.outer(p1, p1)
    chi2 = np.sum((counts - expected) ** 2 / expected)
    pval = stats.chi2.sf(chi2, df=25 - 1)
    assert pval > 0.005


def test_slash_polar_histogram_chi2():
    # 8 angle sectors x 6 radial bands; band probabilities from the radial CDF
    n = 20000
    x = dist.sample(THETA, SL4, n, seed=48)
    d2, ang = spherical_coords(THETA, x)
    plevels = np.array([0.0, 0.2, 0.4, 0.6, 0.8, 0.95, 1.0 - 1e-12])
    redges = np.array([dist.mahalanobis_quantile(SL4, p) for p in plevels])
    redges[-1] = np.inf
    aedges = np.linspace(-math.pi, math.pi, 9)
    counts, _, _ = np.histogram2d(d2, ang, bins=[redges, aedges])
    pband = np.diff(plevels)
    pband[-1] = 1.0 - plevels[-2]
    expected = n * np.outer(pband, np.full(8, 1.0 / 8.0))
    chi2 = np.sum((counts - expected) ** 2 / expected)
    pval = stats.chi2.sf(chi2, df=48 - 1)
    assert pval > 0.005


def test_slash_radial_band_counts():
    # radius-only binned goodness of fit through the generic quantile path
    n = 20000
    x = dist.sample(THETA, SL4, n, seed=49)
    d2, _ = spherical_coords(THETA, x)
    plevels = np.linspace(0.0, 1.0, 21)
    edges = np.array([dist.mahalanobis_quantile(SL4, p) for p in plevels[:-1]] + [np.inf])
    counts, _ = np.histogram(d2, bins=edges)
    expected = n * np.diff(plevels)
    chi2 = np.sum((counts - expected) ** 2 / expected)
    pval = stats.chi2.sf(chi2, df=20 - 1)
    assert pval > 0.005


@pytest.mark.parametrize(
    "spec, sigma",
    [
        (make_generator("loglaplace"), 0.5),
        # X ~ 1e300 and logslash's power tail: a small sigma keeps e^(sigma z) finite
        (make_generator("loghyperbolic", nu=1e-150), 1e-152),
        (make_generator("loghyperbolic", nu=2.0), 0.5),
        (make_generator("loghyperbolic", nu=700.0), 0.5),
        (make_generator("logslash", nu=1.5), 1e-10),
        (make_generator("logslash", nu=90.0), 0.5),
        (make_generator("logpexp", xi=-0.999), 0.5),
        (make_generator("logpexp", xi=0.5), 0.5),
        (make_generator("logpexp", xi=1.0), 0.5),
    ],
    ids=lambda v: v.label() if hasattr(v, "label") else f"sigma={v:g}",
)
def test_representation_draws_follow_the_radial_law(spec, sigma):
    # the four families drawn as products of standard draws, not through
    # radial_isf: KS of the sampled Mahalanobis radius against 1 - S
    th = BLSParams(1.0, 2.0, sigma, sigma, 0.4)
    n = 400_000
    x = dist.sample(th, spec, n, seed=20261019)
    d2 = np.sort(dist.mahalanobis_sq(th, x[:, 0], x[:, 1]))
    cdf = 1.0 - gen.radial_sf(spec, d2)
    i = np.arange(1, n + 1)
    ks = max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n))
    assert ks <= stats.kstwo.isf(1e-3, n)
