"""End-to-end acceptance checks, one numbered criterion per test.

Each test prints a single visible line
    ACCEPTANCE n: PASS/FAIL — description (measurements)
so a full run doubles as a checklist. Criterion 7 is expected to fail: its
target band encodes a persistent negative bias for a self-consistent
simulation design that, at this scale and seed, measures more than twenty
Monte Carlo standard errors away from the band; the companion test directly
below it demonstrates the generate/fit shape mismatch that does land in the
band. The numbers are frozen and the reasoning lives next to the asserts.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate, stats

from blslab.distribution import (
    BLSParams,
    conditional_pdf_t1_given_t2_in_interval,
    joint_pdf,
    mahalanobis_cdf,
    mahalanobis_quantile,
    mahalanobis_sq,
    marginal_cdf_z,
    marginal_quantile,
    sample,
    transform_power,
    transform_scale,
)
from blslab.estimation import fit_mle, log_likelihood, score
from blslab.generators import (
    GeneratorId,
    make_generator,
    partition_closed,
    partition_numeric,
)
from blslab.montecarlo import MCConfig, replication_seed, run_study

_SUITE_T0 = time.time()

LN = make_generator(GeneratorId.LOGNORMAL)
LT4 = make_generator(GeneratorId.STUDENT_T, nu=4.0)


def _announce(capsys, line: str) -> None:
    with capsys.disabled():
        print(line, flush=True)


# ---------------------------------------------------------------------- 1

def test_acceptance_01_partition_closed_forms(capsys):
    cases = [
        make_generator(GeneratorId.LOGNORMAL),
        make_generator(GeneratorId.STUDENT_T, nu=3.0),
        make_generator(GeneratorId.STUDENT_T, nu=7.0),
        make_generator(GeneratorId.PEARSON_VII, xi=5.0, theta=22.0),
        make_generator(GeneratorId.HYPERBOLIC, nu=2.0),
        make_generator(GeneratorId.LAPLACE),
        make_generator(GeneratorId.SLASH, nu=4.0),
        make_generator(GeneratorId.SLASH, nu=5.0),
        make_generator(GeneratorId.POWER_EXP, xi=0.3),
        make_generator(GeneratorId.POWER_EXP, xi=0.5),
        make_generator(GeneratorId.LOGISTIC),
    ]
    t0 = time.time()
    worst = 0.0
    for spec in cases:
        closed = partition_closed(spec)
        numeric = partition_numeric(spec)
        worst = max(worst, abs(numeric - closed) / closed)
    elapsed = time.time() - t0
    ok = worst <= 1e-6 and elapsed < 5.0
    _announce(
        capsys,
        f"ACCEPTANCE 1: {'PASS' if ok else 'FAIL'} — partition constants match "
        f"quadrature for all families (max rel err {worst:.2e}, {elapsed:.2f}s)",
    )
    assert worst <= 1e-6
    assert elapsed < 5.0


# ---------------------------------------------------------------------- 2

_NORM_THETAS = (
    BLSParams(1.0, 1.0, 1.0, 1.0, 0.0),
    BLSParams(2.0, 0.5, 0.7, 1.3, 0.6),
    BLSParams(1.0, 3.0, 0.4, 0.9, -0.75),
)


def _normalization_mass(theta: BLSParams, spec) -> float:
    # integrate the joint density over (0, inf)^2 through standardized
    # log coordinates; panels split at 0 and +-10 to help the quadrature
    q = mahalanobis_quantile(spec, 1.0 - 1e-6)
    b = max(8.0, math.sqrt(q * (1.0 + abs(theta.rho))) + 1.0)
    edges = sorted({e for e in (-b, -10.0, 0.0, 10.0, b) if -b <= e <= b})

    l1, l2 = math.log(theta.eta1), math.log(theta.eta2)

    def f(z2, z1):
        t1 = math.exp(l1 + theta.sigma1 * z1)
        t2 = math.exp(l2 + theta.sigma2 * z2)
        jac = t1 * t2 * theta.sigma1 * theta.sigma2
        return joint_pdf(theta, spec, t1, t2) * jac

    total = 0.0
    for i in range(len(edges) - 1):
        for j in range(len(edges) - 1):
            val, _ = integrate.dblquad(
                f, edges[i], edges[i + 1], edges[j], edges[j + 1],
                epsabs=1e-8, epsrel=1e-8,
            )
            total += val
    return total


def test_acceptance_02_normalization(capsys):
    specs = [
        make_generator(GeneratorId.LOGNORMAL),
        make_generator(GeneratorId.STUDENT_T, nu=3.0),
        make_generator(GeneratorId.PEARSON_VII, xi=5.0, theta=22.0),
        make_generator(GeneratorId.HYPERBOLIC, nu=2.0),
        make_generator(GeneratorId.LAPLACE),
        make_generator(GeneratorId.SLASH, nu=4.0),
        make_generator(GeneratorId.POWER_EXP, xi=0.5),
        make_generator(GeneratorId.LOGISTIC),
    ]
    t0 = time.time()
    worst = 0.0
    for spec in specs:
        for theta in _NORM_THETAS:
            worst = max(worst, abs(_normalization_mass(theta, spec) - 1.0))
    elapsed = time.time() - t0
    ok = worst <= 1e-5 and elapsed < 120.0
    _announce(
        capsys,
        f"ACCEPTANCE 2: {'PASS' if ok else 'FAIL'} — joint density integrates "
        f"to one, 8 families x 3 settings (max |mass-1| {worst:.2e}, {elapsed:.1f}s)",
    )
    assert worst <= 1e-5
    assert elapsed < 120.0


# ---------------------------------------------------------------------- 3

def test_acceptance_03_radial_law(capsys):
    theta = BLSParams(1.0, 1.0, 0.5, 0.5, 0.3)
    x = sample(theta, LN, 20000, seed=31)
    d2_ln = mahalanobis_sq(theta, x[:, 0], x[:, 1])
    p_ln = stats.kstest(d2_ln, stats.chi2(2).cdf).pvalue

    x = sample(theta, LT4, 20000, seed=32)
    d2_t = mahalanobis_sq(theta, x[:, 0], x[:, 1])
    p_t = stats.kstest(d2_t, lambda v: stats.f.cdf(v / 2.0, 2, 4)).pvalue

    ok = p_ln > 0.01 and p_t > 0.01
    _announce(
        capsys,
        f"ACCEPTANCE 3: {'PASS' if ok else 'FAIL'} — 20k-sample squared radii "
        f"match chi2(2) [KS p={p_ln:.3f}] and 2F(2,4) [KS p={p_t:.3f}] at alpha=0.01",
    )
    assert p_ln > 0.01
    assert p_t > 0.01


# ---------------------------------------------------------------------- 4

def _random_instance(rng, k):
    fam = list(GeneratorId)[k % 8]
    if fam is GeneratorId.STUDENT_T:
        spec = make_generator(fam, nu=float(rng.integers(3, 13)))
    elif fam is GeneratorId.PEARSON_VII:
        spec = make_generator(fam, xi=float(rng.uniform(2.0, 6.0)),
                              theta=float(rng.uniform(5.0, 30.0)))
    elif fam is GeneratorId.HYPERBOLIC:
        spec = make_generator(fam, nu=float(rng.integers(1, 6)))
    elif fam is GeneratorId.SLASH:
        spec = make_generator(fam, nu=float(rng.integers(2, 9)))
    elif fam is GeneratorId.POWER_EXP:
        spec = make_generator(fam, xi=float(rng.uniform(-0.4, 0.9)))
    else:
        spec = make_generator(fam)
    theta = BLSParams(
        float(np.exp(rng.uniform(-0.7, 0.7))),
        float(np.exp(rng.uniform(-0.7, 0.7))),
        float(rng.uniform(0.3, 1.2)),
        float(rng.uniform(0.3, 1.2)),
        float(rng.uniform(-0.9, 0.9)),
    )
    return spec, theta


def test_acceptance_04_score_vs_finite_differences(capsys):
    rng = np.random.default_rng(415)
    eps3 = float(np.cbrt(np.finfo(float).eps))
    worst = 0.0
    for k in range(50):
        spec, theta = _random_instance(rng, k)
        x = sample(theta, spec, 40, seed=int(rng.integers(0, 2**31)))
        analytic = score(theta, spec, x)
        th = theta.as_array()
        h = eps3 * np.maximum(np.abs(th), 0.01)
        h[4] = min(h[4], (1.0 - abs(th[4])) / 10.0)
        fd = np.empty(5)
        for j in range(5):
            e = np.zeros(5)
            e[j] = h[j]
            lp = log_likelihood(BLSParams.from_array(th + e), spec, x)
            lm = log_likelihood(BLSParams.from_array(th - e), spec, x)
            fd[j] = (lp - lm) / (2.0 * h[j])
        rel = np.max(np.abs(fd - analytic) / np.maximum(np.abs(analytic), 1.0))
        worst = max(worst, float(rel))
    ok = worst <= 1e-5
    _announce(
        capsys,
        f"ACCEPTANCE 4: {'PASS' if ok else 'FAIL'} — analytic score matches "
        f"finite differences on 50 random instances (max rel err {worst:.2e})",
    )
    assert worst <= 1e-5


# ---------------------------------------------------------------------- 5

def test_acceptance_05_gaussian_closed_form_oracle(capsys):
    worst = 0.0
    for seed in range(20):
        theta = BLSParams(1.0, 2.0, 0.5, 0.3, 0.25)
        x = sample(theta, LN, 200, seed=seed)
        logs = np.log(x)
        mu = logs.mean(axis=0)
        sd = np.sqrt(np.mean((logs - mu) ** 2, axis=0))
        r = float(np.corrcoef(logs[:, 0], logs[:, 1])[0, 1])
        closed = np.array([math.exp(mu[0]), math.exp(mu[1]), sd[0], sd[1], r])
        fit = fit_mle(x, LN, compute_se=False)
        assert fit.converged
        worst = max(worst, float(np.max(np.abs(fit.theta_hat.as_array() - closed))))
    ok = worst <= 1e-6
    _announce(
        capsys,
        f"ACCEPTANCE 5: {'PASS' if ok else 'FAIL'} — lognormal MLE equals the "
        f"closed-form log-data solution on 20 datasets (max coord err {worst:.2e})",
    )
    assert worst <= 1e-6


# ---------------------------------------------------------------------- 6

def test_acceptance_06_lognormal_bias_mse_study(capsys):
    t0 = time.time()
    cfg = MCConfig(
        spec=LN,
        true_theta=BLSParams(1.0, 1.0, 0.5, 0.5, 0.5),
        sample_sizes=(100,),
        rho_values=(0.0, 0.25, 0.5, 0.95),
        replications=300,
        master_seed=20260819,
    )
    report = run_study(cfg, workers=4)
    elapsed = time.time() - t0
    worst_bias = max(
        max(abs(c.bias[0]), abs(c.bias[1]), abs(c.bias[4])) for c in report.cells
    )
    mse_lo = min(c.mse[0] for c in report.cells)
    mse_hi = max(c.mse[0] for c in report.cells)
    ok = worst_bias <= 0.012 and 0.0013 <= mse_lo and mse_hi <= 0.0037 and elapsed < 600
    _announce(
        capsys,
        f"ACCEPTANCE 6: {'PASS' if ok else 'FAIL'} — lognormal study n=100, "
        f"4 correlations x 300 reps: max |bias(eta,rho)| {worst_bias:.4f} (<=0.012), "
        f"MSE(eta1) in [{mse_lo:.4f}, {mse_hi:.4f}] (target 0.0025+-0.0012), {elapsed:.1f}s",
    )
    assert worst_bias <= 0.012
    assert 0.0013 <= mse_lo and mse_hi <= 0.0037
    assert elapsed < 600.0


# ---------------------------------------------------------------------- 7

def test_acceptance_07_slash_bias_as_stated(capsys):
    """Self-consistent heavy-tail study, bias target band [-0.125, -0.065].

    Generating and fitting the same slash nu=4 model at n=100 gives a nearly
    unbiased sigma1 (measured -0.0002, Monte Carlo s.e. ~0.003, frozen seed),
    more than twenty standard errors outside the band, so this criterion
    fails honestly rather than being faked; the companion test below shows
    the one design that does land in the band.
    """
    t0 = time.time()
    cfg = MCConfig(
        spec=make_generator(GeneratorId.SLASH, nu=4.0),
        true_theta=BLSParams(1.0, 1.0, 0.5, 0.5, 0.5),
        sample_sizes=(100,),
        rho_values=(0.5,),
        replications=300,
        master_seed=20260819,
    )
    cell = run_study(cfg, workers=4).cells[0]
    elapsed = time.time() - t0
    bias_s1, bias_e1 = cell.bias[2], cell.bias[0]
    in_band = -0.125 <= bias_s1 <= -0.065 and abs(bias_e1) <= 0.015
    _announce(
        capsys,
        f"ACCEPTANCE 7: {'PASS' if in_band else 'FAIL'} — slash nu=4 self-study "
        f"(n=100, rho=0.5, 300 reps, {elapsed:.1f}s): bias(sigma1) {bias_s1:+.4f} "
        f"vs band [-0.125, -0.065], bias(eta1) {bias_e1:+.4f} vs +-0.015; the "
        f"self-consistent design is near-unbiased, see the mismatch companion test",
    )
    assert bias_s1 == pytest.approx(-0.00018, abs=0.0005)  # frozen measurement
    if not in_band:
        pytest.fail(
            f"bias(sigma1) {bias_s1:+.5f} is outside [-0.125, -0.065]: the "
            "self-consistent study does not show the targeted persistent bias"
        )


def test_acceptance_07_supplementary_shape_mismatch_bias(capsys):
    """The band of criterion 7 is reachable only with a generate/fit shape
    mismatch: draw from slash nu=5 and fit slash nu=3 (two profile steps
    apart). Frozen at the same master seed: bias(sigma1) -0.0979, bias(eta1)
    +0.0087."""
    gen5 = make_generator(GeneratorId.SLASH, nu=5.0)
    fit3 = make_generator(GeneratorId.SLASH, nu=3.0)
    truth = BLSParams(1.0, 1.0, 0.5, 0.5, 0.5)
    estimates = []
    for r in range(300):
        x = sample(truth, gen5, 100, replication_seed(20260819, 0, 0, r))
        fit = fit_mle(x, fit3, compute_se=False)
        if fit.converged:
            estimates.append(fit.theta_hat.as_array())
    arr = np.vstack(estimates)
    bias = arr.mean(axis=0) - truth.as_array()
    ok = -0.125 <= bias[2] <= -0.065 and abs(bias[0]) <= 0.015
    _announce(
        capsys,
        f"ACCEPTANCE 7 (supplementary): {'PASS' if ok else 'FAIL'} — generate "
        f"slash nu=5 / fit nu=3 mismatch: bias(sigma1) {bias[2]:+.4f} in "
        f"[-0.125, -0.065], bias(eta1) {bias[0]:+.4f} within +-0.015 "
        f"({len(estimates)}/300 converged)",
    )
    assert len(estimates) >= 294  # at most 2% fit failures
    assert -0.125 <= bias[2] <= -0.065
    assert abs(bias[0]) <= 0.015


# ---------------------------------------------------------------------- 8

def _direct_interval_conditional(theta, spec, t1, interval):
    lo, hi = interval
    l1 = math.log(theta.eta1)

    def numer_f(t2):
        return joint_pdf(theta, spec, t1, t2)

    numer, _ = integrate.quad(numer_f, lo, hi, epsabs=1e-12, epsrel=1e-11)

    def inner(t2):
        def g(z1):
            # heavy-tailed generators put real mass far out in z1, so
            # integrate the whole line and zero out only past exp overflow
            w = l1 + theta.sigma1 * z1
            if abs(w) > 600.0:
                return 0.0
            u = math.exp(w)
            return joint_pdf(theta, spec, u, t2) * u * theta.sigma1

        val, _ = integrate.quad(g, -np.inf, np.inf, epsabs=1e-13, epsrel=1e-12,
                                points=None, limit=200)
        return val

    denom, _ = integrate.quad(inner, lo, hi, epsabs=1e-12, epsrel=1e-11)
    return numer / denom


def test_acceptance_08_interval_conditionals(capsys):
    configs = [
        (t1, interval)
        for t1 in (0.5, 1.0, 2.0, 4.0)
        for interval in ((0.5, 1.5), (1.0, 2.0), (0.2, 5.0))
    ]
    worst = 0.0
    for spec, theta in (
        (LN, BLSParams(1.0, 1.0, 0.5, 0.5, 0.3)),
        (LT4, BLSParams(1.0, 2.0, 0.4, 0.6, -0.4)),
    ):
        for t1, interval in configs:
            closed = conditional_pdf_t1_given_t2_in_interval(theta, spec, t1, interval)
            direct = _direct_interval_conditional(theta, spec, t1, interval)
            worst = max(worst, abs(closed - direct) / max(1.0, abs(closed)))
    ok = worst <= 1e-6
    _announce(
        capsys,
        f"ACCEPTANCE 8: {'PASS' if ok else 'FAIL'} — interval conditionals match "
        f"direct quadrature, 12 configs x 2 generators (max rel err {worst:.2e})",
    )
    assert worst <= 1e-6


# ---------------------------------------------------------------------- 9

def test_acceptance_09_information_criterion_arithmetic(capsys):
    ll, n, k = -58.117, 15, 5
    aic = -2.0 * ll + 2.0 * k
    bic = -2.0 * ll + k * math.log(n)
    ok = abs(aic - 126.23) <= 0.01 and abs(bic - 129.78) <= 0.01
    _announce(
        capsys,
        f"ACCEPTANCE 9: {'PASS' if ok else 'FAIL'} — loglik -58.117, n=15 gives "
        f"AIC {aic:.3f} (~126.23) and BIC {bic:.3f} (~129.78) under the k=5 convention",
    )
    assert abs(aic - 126.23) <= 0.01
    assert abs(bic - 129.78) <= 0.01


# --------------------------------------------------------------------- 10

def test_acceptance_10_property_bundle(capsys):
    failures = []

    # P2: standardized pair has the standard-parameter density
    theta = BLSParams(2.0, 0.5, 0.7, 1.3, 0.6)
    spec = make_generator(GeneratorId.LOGISTIC)
    theta0 = BLSParams(1.0, 1.0, 1.0, 1.0, theta.rho)
    for s1 in (0.5, 1.0, 1.7):
        for s2 in (0.6, 1.0, 2.1):
            t1 = theta.eta1 * s1**theta.sigma1
            t2 = theta.eta2 * s2**theta.sigma2
            jac = (
                theta.eta1 * theta.sigma1 * s1 ** (theta.sigma1 - 1.0)
                * theta.eta2 * theta.sigma2 * s2 ** (theta.sigma2 - 1.0)
            )
            lhs = joint_pdf(theta, spec, t1, t2) * jac
            rhs = joint_pdf(theta0, spec, s1, s2)
            if abs(lhs - rhs) > 1e-10 * max(1.0, rhs):
                failures.append(f"P2 at ({s1},{s2})")

    # P3: scaling closure
    spec_t = make_generator(GeneratorId.STUDENT_T, nu=5.0)
    theta = BLSParams(1.0, 2.0, 0.5, 0.3, 0.25)
    c1, c2 = 3.0, 0.25
    mapped = transform_scale(theta, c1, c2)
    for t1 in (0.7, 1.5):
        for t2 in (1.0, 3.0):
            lhs = joint_pdf(mapped, spec_t, c1 * t1, c2 * t2)
            rhs = joint_pdf(theta, spec_t, t1, t2) / (c1 * c2)
            if abs(lhs - rhs) > 1e-10 * max(1.0, rhs):
                failures.append(f"P3 at ({t1},{t2})")

    # P4: power closure (one negative exponent flips rho's sign)
    c1, c2 = 2.0, -1.0
    mapped = transform_power(theta, c1, c2)
    for t1 in (0.7, 1.5):
        for t2 in (1.0, 3.0):
            u1, u2 = t1**c1, t2**c2
            jac = abs(c1 * t1 ** (c1 - 1.0)) * abs(c2 * t2 ** (c2 - 1.0))
            lhs = joint_pdf(mapped, spec_t, u1, u2) * jac
            rhs = joint_pdf(theta, spec_t, t1, t2)
            if abs(lhs - rhs) > 1e-10 * max(1.0, rhs):
                failures.append(f"P4 at ({t1},{t2})")

    # reciprocity: at unit medians (1/T1, 1/T2) has the same density
    theta = BLSParams(1.0, 1.0, 0.5, 0.8, 0.3)
    for spec_r in (LN, make_generator(GeneratorId.SLASH, nu=4.0)):
        for u1 in (0.5, 2.0):
            for u2 in (0.8, 1.6):
                lhs = joint_pdf(theta, spec_r, 1.0 / u1, 1.0 / u2) / (u1**2 * u2**2)
                rhs = joint_pdf(theta, spec_r, u1, u2)
                if abs(lhs - rhs) > 1e-10 * max(1.0, rhs):
                    failures.append(f"reciprocity {spec_r.label()} ({u1},{u2})")

    # rho=0 lognormal factorization
    theta = BLSParams(1.0, 2.0, 0.5, 0.3, 0.0)

    def lognorm_pdf(t, eta, sigma):
        z = (math.log(t) - math.log(eta)) / sigma
        return math.exp(-0.5 * z * z) / (t * sigma * math.sqrt(2.0 * math.pi))

    for t1 in (0.5, 1.0, 2.0):
        for t2 in (1.0, 2.5):
            lhs = joint_pdf(theta, LN, t1, t2)
            rhs = lognorm_pdf(t1, 1.0, 0.5) * lognorm_pdf(t2, 2.0, 0.3)
            if abs(lhs - rhs) > 1e-10 * max(1.0, rhs):
                failures.append(f"factorization at ({t1},{t2})")

    # radial quantile/CDF round trip
    for spec_r in (LN, LT4, make_generator(GeneratorId.SLASH, nu=4.0),
                   make_generator(GeneratorId.POWER_EXP, xi=0.5)):
        for p in (0.05, 0.5, 0.95, 0.999):
            back = mahalanobis_cdf(spec_r, mahalanobis_quantile(spec_r, p))
            if abs(back - p) > 1e-8:
                failures.append(f"radial round trip {spec_r.label()} p={p}")

    # marginal quantile/CDF round trip
    theta = BLSParams(1.0, 2.0, 0.5, 0.3, 0.25)
    for spec_m in (LN, make_generator(GeneratorId.LOGISTIC)):
        for p in (0.1, 0.5, 0.9):
            q = marginal_quantile(theta, spec_m, 1, p)
            z = (math.log(q) - math.log(theta.eta1)) / theta.sigma1
            if abs(marginal_cdf_z(spec_m, z) - p) > 1e-8:
                failures.append(f"marginal round trip {spec_m.label()} p={p}")

    # Monte Carlo determinism across worker counts
    cfg = MCConfig(
        spec=LN,
        true_theta=BLSParams(1.0, 1.0, 0.5, 0.5, 0.0),
        sample_sizes=(25,),
        rho_values=(0.0, 0.5),
        replications=20,
        master_seed=99,
    )
    if run_study(cfg, workers=1).to_tsv() != run_study(cfg, workers=4).to_tsv():
        failures.append("MC determinism across workers")

    suite_minutes = (time.time() - _SUITE_T0) / 60.0
    ok = not failures and suite_minutes < 20.0
    _announce(
        capsys,
        f"ACCEPTANCE 10: {'PASS' if ok else 'FAIL'} — change-of-variables, "
        f"reciprocity, factorization, round-trip and determinism properties "
        f"({'all hold' if not failures else '; '.join(failures)}); "
        f"acceptance suite wall time {suite_minutes:.1f} min (<20)",
    )
    assert not failures
    assert suite_minutes < 20.0
