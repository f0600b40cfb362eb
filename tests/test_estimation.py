"""Likelihood, score, MLE, standard errors, and profile fitting.

Oracles: scipy's bivariate normal log-density on log-data for the lognormal
likelihood; central finite differences of log_likelihood for the score; the
closed-form normal MLE of log-data for the lognormal fit; delta-method rates
for standard errors.
"""

import json
import math
import zlib

import numpy as np
import pytest
from scipy import stats

from blslab import distribution as dist
from blslab import estimation as est
from blslab import generators as gen
from blslab.distribution import BLSParams
from blslab.errors import DomainError
from blslab.generators import GeneratorParams, make_generator

LN = make_generator("lognormal")
LT4 = make_generator("logt", nu=4.0)
LT7 = make_generator("logt", nu=7.0)
SL4 = make_generator("logslash", nu=4.0)
LAP = make_generator("loglaplace")
LOGIS = make_generator("loglogistic")

ALL_SPECS = [
    LN,
    LT4,
    make_generator("logpvii", xi=5.0, theta=22.0),
    make_generator("loghyperbolic", nu=2.0),
    LAP,
    SL4,
    make_generator("logpexp", xi=0.5),
    LOGIS,
]

THETA = BLSParams(1.0, 2.0, 0.5, 0.7, 0.5)


def closed_form_lognormal_mle(x):
    """Sample means/SDs (1/n convention) and correlation of the log-data."""
    logs = np.log(x)
    mu = logs.mean(axis=0)
    sig = logs.std(axis=0)
    rho = np.corrcoef(logs[:, 0], logs[:, 1])[0, 1]
    return np.array([math.exp(mu[0]), math.exp(mu[1]), sig[0], sig[1], rho])


# ---------------------------------------------------------------------------
# log-likelihood


def test_log_likelihood_lognormal_oracle():
    x = dist.sample(THETA, LN, 60, seed=1)
    logs = np.log(x)
    cov = np.array(
        [
            [0.25, 0.5 * 0.5 * 0.7],
            [0.5 * 0.5 * 0.7, 0.49],
        ]
    )
    ref = stats.multivariate_normal(mean=[0.0, math.log(2.0)], cov=cov)
    expected = float(np.sum(ref.logpdf(logs)) - np.sum(logs))
    assert est.log_likelihood(THETA, LN, x) == pytest.approx(expected, abs=1e-10)


def test_log_likelihood_at_median_point():
    # five copies of t = (eta1, eta2) with rho = 0: each term is
    # log[1 / (2 pi eta1 eta2 sigma1 sigma2)]
    th = BLSParams(1.5, 0.8, 0.4, 0.9, 0.0)
    x = np.tile([1.5, 0.8], (5, 1))
    expected = 5.0 * math.log(1.0 / (2.0 * math.pi * 1.5 * 0.8 * 0.4 * 0.9))
    assert est.log_likelihood(th, LN, x) == pytest.approx(expected, rel=1e-13)


def test_log_likelihood_scale_jacobian():
    x = dist.sample(THETA, SL4, 50, seed=2)
    c = 2.5
    mapped = dist.transform_scale(THETA, c, c)
    diff = est.log_likelihood(mapped, SL4, c * x) - est.log_likelihood(
        THETA, SL4, x
    )
    assert diff == pytest.approx(-50 * 2 * math.log(c), rel=1e-12)


def test_log_likelihood_constant_free_decomposition():
    # full likelihood = generator part - n log(sigma1 sigma2 c Z) - sum log t
    x = dist.sample(THETA, LT4, 30, seed=3)
    zt1 = (np.log(x[:, 0]) - 0.0) / 0.5
    zt2 = (np.log(x[:, 1]) - math.log(2.0)) / 0.7
    xq = (zt1**2 - 2 * 0.5 * zt1 * zt2 + zt2**2) / (1 - 0.25)
    kernel_part = float(np.sum(gen.log_g(LT4, xq))) - 30 * math.log(
        0.5 * 0.7 * math.sqrt(0.75)
    )
    full = kernel_part - 30 * math.log(gen.partition_closed(LT4)) - float(
        np.sum(np.log(x))
    )
    assert est.log_likelihood(THETA, LT4, x) == pytest.approx(full, rel=1e-12)


def test_data_validation():
    with pytest.raises(DomainError):
        est.log_likelihood(THETA, LN, np.ones((4, 2)))
    with pytest.raises(DomainError):
        est.log_likelihood(THETA, LN, np.ones((10, 3)))
    bad = np.ones((10, 2))
    bad[3, 1] = -1.0
    with pytest.raises(DomainError):
        est.log_likelihood(THETA, LN, bad)


# ---------------------------------------------------------------------------
# score


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label())
def test_score_matches_finite_differences(spec):
    rng = np.random.default_rng(zlib.crc32(spec.label().encode()))  # the same in every process
    for _ in range(4):
        th = BLSParams(
            float(rng.uniform(0.3, 3.0)),
            float(rng.uniform(0.3, 3.0)),
            float(rng.uniform(0.2, 1.5)),
            float(rng.uniform(0.2, 1.5)),
            float(rng.uniform(-0.9, 0.9)),
        )
        x = dist.sample(th, spec, 40, seed=int(rng.integers(1 << 30)))
        s = est.score(th, spec, x)
        arr = th.as_array()
        for j in range(5):
            h = 1e-6 * max(abs(arr[j]), 0.01)
            if j == 4:
                h = min(h, (1.0 - abs(arr[4])) / 100.0)
            ap, am = arr.copy(), arr.copy()
            ap[j] += h
            am[j] -= h
            fd = (
                est.log_likelihood(BLSParams.from_array(ap), spec, x)
                - est.log_likelihood(BLSParams.from_array(am), spec, x)
            ) / (2.0 * h)
            assert s[j] == pytest.approx(fd, rel=1e-5, abs=1e-5)


def test_score_zero_at_closed_form_mle():
    x = dist.sample(THETA, LN, 200, seed=4)
    mle = BLSParams.from_array(closed_form_lognormal_mle(x))
    s = est.score(mle, LN, x)
    assert np.max(np.abs(s)) / max(1.0, abs(est.log_likelihood(mle, LN, x))) < 1e-8


def test_score_singular_family_at_center_point():
    # a laplace data point exactly at (eta1, eta2) makes x_q = 0 where the
    # score ratio diverges
    x = np.vstack([np.tile([1.0, 2.0], (5, 1)), [[1.3, 2.6]]])
    with pytest.raises(DomainError):
        est.score(BLSParams(1.0, 2.0, 0.5, 0.7, 0.0), LAP, x)


def _differenced_score_hessian(phi, spec, x, floor):
    """Central-difference Jacobian of the analytic score in phi."""
    h = 1e-5 * np.maximum(1.0, np.abs(phi))
    H = np.empty((5, 5))
    lx = est._log_sample(spec, x)
    for j in range(5):
        ej = np.zeros(5)
        ej[j] = h[j]
        sp = est._ll_score_hess(phi + ej, spec, lx, floor)[1]
        sm = est._ll_score_hess(phi - ej, spec, lx, floor)[1]
        H[:, j] = (sp - sm) / (2.0 * h[j])
    return 0.5 * (H + H.T)


HESSIAN_CASES = [(spec, 0.0) for spec in ALL_SPECS] + [
    # winsorized surrogates with radii below the floor: a clipped radius
    # contributes r(floor) and no r' term
    (LAP, 1e-2),
    (make_generator("logpexp", xi=1.0), 1e-2),
]


@pytest.mark.parametrize(
    "spec,floor", HESSIAN_CASES, ids=lambda v: v.label() if hasattr(v, "label") else str(v)
)
def test_analytic_hessian_matches_differenced_score(spec, floor):
    th = BLSParams(1.2, 1.7, 0.6, 0.8, -0.4)
    x = dist.sample(th, spec, 40, seed=17)
    if floor > 0.0:
        # two pairs next to the centre, well inside the floor
        x[:2] = [[1.2 * math.exp(0.6 * 1e-3), 1.7], [1.2, 1.7 * math.exp(-0.8 * 2e-3)]]
    phi = est._theta_to_phi(th)
    if floor > 0.0:
        q = dist.mahalanobis_sq(th, x[:, 0], x[:, 1])
        assert np.sum(q < floor) >= 2
        assert np.min(np.abs(q / floor - 1.0)) > 1e-2  # no radius on the kink
    _, s, H = est._ll_score_hess(phi, spec, est._log_sample(spec, x), floor)
    ref = _differenced_score_hessian(phi, spec, x, floor)
    np.testing.assert_allclose(H, ref, rtol=1e-6, atol=1e-6 * np.max(np.abs(H)))


@pytest.mark.parametrize("spec", [SL4, LOGIS], ids=lambda s: s.label())
def test_rewritten_likelihood_equations_at_root(spec):
    x = dist.sample(BLSParams(1.0, 1.0, 0.5, 0.5, 0.5), spec, 150, seed=77)
    fit = est.fit_mle(x, spec, compute_se=False)
    assert fit.converged
    th = fit.theta_hat
    zt1 = (np.log(x[:, 0]) - math.log(th.eta1)) / th.sigma1
    zt2 = (np.log(x[:, 1]) - math.log(th.eta2)) / th.sigma2
    c2 = 1.0 - th.rho**2
    xq = ((zt1 - th.rho * zt2) / math.sqrt(c2)) ** 2 + zt2**2
    G = gen.r(spec, xq)
    assert abs(float(np.sum(zt1 * G))) < 1e-6
    assert abs(float(np.sum((zt1**2 - zt2**2) * G))) < 1e-6


# ---------------------------------------------------------------------------
# fit_mle


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_fit_lognormal_matches_closed_form(seed):
    x = dist.sample(THETA, LN, 200, seed=seed)
    fit = est.fit_mle(x, LN, compute_se=False)
    assert fit.converged
    assert np.max(
        np.abs(fit.theta_hat.as_array() - closed_form_lognormal_mle(x))
    ) < 1e-6


def test_fit_result_information_criteria():
    x = dist.sample(THETA, LN, 80, seed=21)
    fit = est.fit_mle(x, LN, compute_se=False)
    assert fit.aic == pytest.approx(-2.0 * fit.log_lik + 10.0, rel=1e-14)
    assert fit.bic == pytest.approx(
        -2.0 * fit.log_lik + 5.0 * math.log(80), rel=1e-14
    )
    assert fit.n_obs == 80
    assert fit.iterations >= 1
    assert fit.grad_norm <= 1e-6


def test_newton_takes_derivatives_only_at_accepted_points(monkeypatch):
    # a trial is judged on log g alone: r' runs at each homotopy stage's
    # start and at each accepted step, and the eigendecomposition at most as
    # often; on this sample Armijo rejects trials, which cost log g only
    calls = {"log_g": 0, "dr": 0, "eigh": 0}

    def counted(name, f):
        def wrapper(*a, **k):
            calls[name] += 1
            return f(*a, **k)
        return wrapper

    x = dist.sample(BLSParams(1.0, 1.0, 0.5, 0.5, 0.5), LAP, 100, seed=1)
    for mod, name in ((gen, "log_g"), (gen, "dr"), (np.linalg, "eigh")):
        monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
    fit = est.fit_mle(x, LAP, compute_se=False)
    assert fit.converged
    assert calls["dr"] == fit.iterations + 2  # two stages: floors 1e-2 and 0.05/n
    assert calls["eigh"] <= calls["dr"]
    assert calls["log_g"] > calls["dr"]


_OFF_DOMAIN = [math.nan, math.inf, -math.inf, 60.5, -60.5]


@pytest.mark.parametrize("k", range(5))
@pytest.mark.parametrize("bad", _OFF_DOMAIN)
def test_objective_guards_every_coordinate(k, bad, monkeypatch):
    # NaN, an infinity or a step past the 60-box in any one coordinate gives
    # the shared guard before the likelihood is evaluated; Python's max()
    # would see a NaN only in first place
    x = dist.sample(THETA, SL4, 30, seed=4)
    lx = est._log_sample(SL4, x)
    phi = est._theta_to_phi(THETA)
    assert est._objective(phi, SL4, lx, 0.0)[0] < 0.5 * est._BAD_NLL
    phi[k] = bad
    monkeypatch.setattr(gen, "log_g", None)  # not to be called
    assert est._objective(phi, SL4, lx, 0.0) is est._GUARD


@pytest.mark.parametrize("c", [20.0, -20.0, 59.0])
def test_objective_guards_a_rho_that_rounds_to_one(c, monkeypatch):
    x = dist.sample(THETA, SL4, 30, seed=4)
    phi = np.array([*THETA.logs[:4], c])
    assert abs(math.tanh(c)) == 1.0
    monkeypatch.setattr(gen, "log_g", None)
    assert est._objective(phi, SL4, est._log_sample(SL4, x), 0.0) is est._GUARD


def test_objective_guard_is_read_only():
    nll, grad, hess = est._GUARD
    assert nll == est._BAD_NLL and not grad.any() and not hess.any()
    for a in (grad, hess):
        with pytest.raises(ValueError):
            a[0] = 1.0


def test_fit_scale_equivariance():
    x = dist.sample(THETA, SL4, 120, seed=5)
    f0 = est.fit_mle(x, SL4, compute_se=False)
    f1 = est.fit_mle(x * np.array([2.0, 3.0]), SL4, compute_se=False)
    assert f1.theta_hat.eta1 / 2.0 == pytest.approx(f0.theta_hat.eta1, abs=1e-6)
    assert f1.theta_hat.eta2 / 3.0 == pytest.approx(f0.theta_hat.eta2, abs=1e-6)
    assert f1.theta_hat.sigma1 == pytest.approx(f0.theta_hat.sigma1, abs=1e-6)
    assert f1.theta_hat.sigma2 == pytest.approx(f0.theta_hat.sigma2, abs=1e-6)
    assert f1.theta_hat.rho == pytest.approx(f0.theta_hat.rho, abs=1e-6)


def test_fit_power_equivariance():
    x = dist.sample(THETA, SL4, 120, seed=5)
    f0 = est.fit_mle(x, SL4, compute_se=False)
    f2 = est.fit_mle(x**2.0, SL4, compute_se=False)
    assert f2.theta_hat.eta1 == pytest.approx(f0.theta_hat.eta1**2, abs=1e-6)
    assert f2.theta_hat.eta2 == pytest.approx(f0.theta_hat.eta2**2, abs=1e-6)
    assert f2.theta_hat.sigma1 == pytest.approx(2 * f0.theta_hat.sigma1, abs=1e-6)
    assert f2.theta_hat.sigma2 == pytest.approx(2 * f0.theta_hat.sigma2, abs=1e-6)
    assert f2.theta_hat.rho == pytest.approx(f0.theta_hat.rho, abs=1e-6)


def test_fit_invariant_to_default_starts():
    x = dist.sample(THETA, SL4, 120, seed=6)
    s1, s2 = est.default_starts(x)
    fa = est.fit_mle(x, SL4, init=s1, compute_se=False)
    fb = est.fit_mle(x, SL4, init=s2, compute_se=False)
    assert fa.log_lik == pytest.approx(fb.log_lik, abs=1e-6)
    assert np.max(
        np.abs(fa.theta_hat.as_array() - fb.theta_hat.as_array())
    ) < 1e-5


def test_fit_near_degenerate_correlation():
    x = dist.sample(BLSParams(1.0, 1.0, 0.5, 0.5, 0.999), LN, 100, seed=7)
    fit = est.fit_mle(x, LN, compute_se=False)
    assert fit.converged
    assert abs(fit.theta_hat.rho) < 1.0
    assert np.all(np.isfinite(fit.theta_hat.as_array()))


@pytest.mark.parametrize("seed", [295, 302])
def test_fit_logpexp_converges_with_optimum_on_a_data_pair(seed):
    # on these samples the logpexp(xi=1) optimum sits on a data pair, where
    # log g = -x^(1/2)/2 has a cusp; the winsorized estimator still converges
    x = dist.sample(BLSParams(1.0, 2.0, 0.5, 0.3, 0.4), SL4, 50, seed=seed)
    fit = est.fit_mle(x, make_generator("logpexp", xi=1.0))
    assert fit.converged
    assert fit.std_errors is not None
    assert np.all(np.isfinite(fit.std_errors))


def test_default_starts_are_robust_moments():
    x = dist.sample(THETA, LN, 500, seed=8)
    s1, _ = est.default_starts(x)
    assert s1.eta1 == pytest.approx(np.median(x[:, 0]), rel=1e-12)
    logs = np.log(x[:, 1])
    mad = np.median(np.abs(logs - np.median(logs)))
    assert s1.sigma2 == pytest.approx(1.4826 * mad, rel=1e-12)


# ---------------------------------------------------------------------------
# standard errors


def test_standard_errors_lognormal_delta_method():
    th = BLSParams(1.0, 2.0, 0.5, 0.7, 0.5)
    x = dist.sample(th, LN, 5000, seed=9)
    fit = est.fit_mle(x, LN)
    assert fit.std_errors is not None
    se = np.asarray(fit.std_errors)
    assert np.all(se > 0.0)
    assert se[0] == pytest.approx(1.0 * 0.5 / math.sqrt(5000), rel=0.10)
    assert se[1] == pytest.approx(2.0 * 0.7 / math.sqrt(5000), rel=0.10)


def test_standard_errors_shrink_like_root_n():
    th = BLSParams(1.0, 1.0, 0.5, 0.5, 0.3)
    big = dist.sample(th, LN, 4000, seed=10)
    small = big[:1000]
    se_small = np.asarray(est.fit_mle(small, LN).std_errors)
    se_big = np.asarray(est.fit_mle(big, LN).std_errors)
    ratios = se_small / se_big
    assert np.all((1.8 <= ratios) & (ratios <= 2.2))


def test_standard_errors_require_convergence():
    x = dist.sample(THETA, LN, 50, seed=11)
    fit = est.fit_mle(x, LN, compute_se=False)
    import dataclasses

    broken = dataclasses.replace(fit, converged=False)
    with pytest.raises(DomainError):
        est.standard_errors(broken, x)


def test_fit_result_json_fields():
    x = dist.sample(THETA, LN, 60, seed=12)
    fit = est.fit_mle(x, LN)
    doc = json.loads(fit.to_json())
    assert set(doc) == {
        "theta_hat",
        "std_errors",
        "log_lik",
        "aic",
        "bic",
        "n_obs",
        "converged",
        "iterations",
        "grad_norm",
        "spec",
    }
    assert list(doc["theta_hat"]) == ["eta1", "eta2", "sigma1", "sigma2", "rho"]
    assert doc["theta_hat"]["rho"] == fit.theta_hat.rho
    assert len(doc["std_errors"]) == 5
    assert doc["spec"] == "lognormal"


# ---------------------------------------------------------------------------
# boundary behavior and profile likelihood


@pytest.mark.parametrize("seed", range(20))
def test_rho_score_sign_change_near_boundary(seed):
    x = dist.sample(BLSParams(1.0, 1.0, 0.5, 0.5, 0.3), LN, 100, seed=300 + seed)
    logs = np.log(x)
    mu = logs.mean(axis=0)
    sig = logs.std(axis=0)
    base = [math.exp(mu[0]), math.exp(mu[1]), sig[0], sig[1]]
    at_hi = est.score(BLSParams(*base, 1.0 - 1e-4), LN, x)[4]
    at_lo = est.score(BLSParams(*base, -(1.0 - 1e-4)), LN, x)[4]
    assert at_hi < 0.0 < at_lo


def test_profile_fit_recovers_degrees_of_freedom():
    hits = 0
    grid = [GeneratorParams(nu=float(v)) for v in range(2, 16)]
    for seed in range(10):
        x = dist.sample(BLSParams(1.0, 1.0, 0.5, 0.5, 0.5), LT7, 500, seed=40 + seed)
        best, fit = est.profile_fit(x, "logt", grid, compute_se=False)
        assert fit.converged
        hits += 5.0 <= best.nu <= 10.0
    assert hits >= 8


def test_profile_fit_degenerate_grid_matches_fit_mle():
    x = dist.sample(THETA, LT4, 100, seed=13)
    best, fit = est.profile_fit(x, "logt", [GeneratorParams(nu=4.0)])
    direct = est.fit_mle(x, LT4)
    assert best.nu == 4.0
    assert fit.log_lik == pytest.approx(direct.log_lik, abs=1e-9)
    assert fit.std_errors == pytest.approx(direct.std_errors)


def test_profile_fit_breaks_likelihood_ties_toward_the_smaller_parameter():
    # logpvii's theta is not identified: sigma -> c sigma with theta ->
    # theta / c^2 leaves the density unchanged, so every theta below reaches
    # the same maximum up to rounding, and rounding must not pick the winner
    x = dist.sample(BLSParams(1.0, 2.0, 0.5, 0.3, 0.4), SL4, 50, seed=2)
    grid = [GeneratorParams(xi=3.0, theta=t) for t in (5.0, 10.0, 16.0, 22.0, 30.0)]
    best, fit = est.profile_fit(x, "logpvii", grid, compute_se=False)
    assert best == GeneratorParams(xi=3.0, theta=5.0)
    assert fit.spec.params == best
    assert est.profile_fit(x, "logpvii", grid[::-1], compute_se=False)[0] == best


@pytest.mark.parametrize("order", [1, -1])
def test_profile_fit_tie_rule_keeps_the_smallest_key_within_tolerance(order, monkeypatch):
    # fits whose log-likelihoods agree within 1e-9 * |ll| tie, and the
    # smallest parameter among them wins, in either grid order
    from types import SimpleNamespace

    lls = {
        (2.0,): -100.0 - 2e-7, (3.0,): -100.0, (5.0,): -100.0 + 5e-8, (8.0,): -101.0,
        (2.0, 5.0): -100.0 - 2e-7, (3.0, 5.0): -100.0, (4.0, 5.0): -100.0 + 5e-8,
    }
    monkeypatch.setattr(
        est, "fit_mle",
        lambda x, spec, **kw: SimpleNamespace(log_lik=lls[est._params_key(spec.params)]),
    )
    x = dist.sample(THETA, LT4, 20, seed=1)
    grid = [GeneratorParams(nu=v) for v in (2.0, 5.0, 3.0, 8.0)][::order]
    assert est.profile_fit(x, "logt", grid, compute_se=False)[0].nu == 3.0
    grid = [GeneratorParams(xi=v, theta=5.0) for v in (4.0, 2.0, 3.0)][::order]
    assert est.profile_fit(x, "logpvii", grid, compute_se=False)[0].xi == 3.0


@pytest.mark.parametrize("seed", [270, 271, 272])
def test_profile_fit_fits_one_theta_per_xi_on_the_default_logpvii_grid(seed, monkeypatch):
    # the smallest theta at each xi is the point the tie rule keeps, so
    # fitting only those 6 of the 30 points gives the brute-force answer
    from blslab.datakit import default_grid

    x = dist.sample(BLSParams(1.0, 2.0, 0.5, 0.3, 0.4), SL4, 50, seed=seed)
    grid = default_grid(gen.GeneratorId.PEARSON_VII)
    fits = [(p, est.fit_mle(x, gen.GeneratorSpec(gen.GeneratorId.PEARSON_VII, p),
                            compute_se=False)) for p in grid]
    top = max(f.log_lik for _, f in fits)
    tied = [(p, f) for p, f in fits if f.log_lik >= top - 1e-9 * max(1.0, abs(top))]
    want, want_fit = min(tied, key=lambda pf: (pf[0].xi, pf[0].theta))
    calls, fit_mle = [], est.fit_mle
    monkeypatch.setattr(est, "fit_mle", lambda *a, **kw: calls.append(a[1]) or fit_mle(*a, **kw))
    best, fit = est.profile_fit(x, "logpvii", grid[::-1], compute_se=False)
    assert len(calls) == 6
    assert best == want
    assert (fit.theta_hat, fit.log_lik) == (want_fit.theta_hat, want_fit.log_lik)


@pytest.mark.parametrize("family, grid, fitted", [
    ("logt", [GeneratorParams(nu=v) for v in (2.0, 4.0, 8.0)], 3),
    # logpvii fits the smallest theta at each xi only
    ("logpvii", [GeneratorParams(xi=a, theta=b) for a in (2.0, 3.0) for b in (5.0, 10.0)], 2),
])
def test_profile_fit_attaches_standard_errors_to_the_kept_fit(family, grid, fitted, monkeypatch):
    x = dist.sample(THETA, LT4, 80, seed=21)
    calls, fit_mle = [], est.fit_mle
    monkeypatch.setattr(est, "fit_mle", lambda *a, **kw: calls.append(a[1]) or fit_mle(*a, **kw))
    best, fit = est.profile_fit(x, family, grid)
    assert len(calls) == fitted  # one fit per grid point, and no refit
    direct = fit_mle(x, gen.GeneratorSpec(family, best), compute_se=True)
    assert fit.std_errors is not None
    assert fit == direct  # field for field


def test_profile_fit_empty_grid():
    x = dist.sample(THETA, LT4, 50, seed=14)
    with pytest.raises(DomainError):
        est.profile_fit(x, "logt", [])
