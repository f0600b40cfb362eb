"""Draw samples, verify the squared-radius law empirically, and look at
reproducibility guarantees.

The squared Mahalanobis radius of the log-standardized pair has a known
univariate law per family: chi-squared(2) for the Gaussian generator,
a scaled F for the Student-t one. A quick KS test against the exact CDF
confirms the sampler targets the right joint distribution.

Run:  python3 demos/02_sampling_and_radial_law.py
"""

import numpy as np
from scipy import stats

from blslab import (
    BLSParams,
    GeneratorId,
    mahalanobis_sq,
    make_generator,
    sample,
)
from blslab.generators import radial_sf

theta = BLSParams(1.0, 1.0, 0.5, 0.5, 0.3)
n = 20000

print(f"sampling n={n} from theta={theta}")
print()

# chi2(2) radial law under the Gaussian generator
ln = make_generator(GeneratorId.LOGNORMAL)
x = sample(theta, ln, n, seed=123)
d2 = mahalanobis_sq(theta, x[:, 0], x[:, 1])
ks = stats.kstest(d2, stats.chi2(2).cdf)
print(f"lognormal: KS of squared radius vs chi2(2): D={ks.statistic:.4f}, p={ks.pvalue:.3f}")

# 2 F(2, nu) radial law under the Student-t generator
lt = make_generator(GeneratorId.STUDENT_T, nu=4.0)
x = sample(theta, lt, n, seed=124)
d2 = mahalanobis_sq(theta, x[:, 0], x[:, 1])
ks = stats.kstest(d2, lambda v: stats.f.cdf(v / 2.0, 2, 4))
print(f"logt nu=4: KS of squared radius vs 2*F(2,4): D={ks.statistic:.4f}, p={ks.pvalue:.3f}")

# the same check works for every family through the closed radial law:
# the CDF of d2 is 1 - radial_sf, one vectorized call per family. The last
# four families draw d2 by inverting radial_sf with Halley steps
print()
print("PIT uniformity of the radial CDF at d2 across families (KS p-values):")
families = (
    ln,
    lt,
    make_generator(GeneratorId.LOGISTIC),
    make_generator(GeneratorId.SLASH, nu=4.0),
    make_generator(GeneratorId.LAPLACE),
    make_generator(GeneratorId.HYPERBOLIC, nu=2.0),
    make_generator(GeneratorId.POWER_EXP, xi=-0.5),
)
for i, spec in enumerate(families):
    x = sample(theta, spec, n, seed=7 + i)
    d2 = mahalanobis_sq(theta, x[:, 0], x[:, 1])
    u = 1.0 - radial_sf(spec, d2)
    p = stats.kstest(u, "uniform").pvalue
    print(f"  {spec.label():<20} p={p:.3f}")

# determinism: a seed pins the stream exactly
print()
a = sample(theta, lt, 5, seed=42)
b = sample(theta, lt, 5, seed=42)
print("same seed, bit-identical draws:", np.array_equal(a, b))
print(a)

# medians match (eta1, eta2) and log-scale spread tracks (sigma1, sigma2)
x = sample(theta, lt, n, seed=125)
med = np.median(x, axis=0)
iqr_z = np.diff(np.percentile(np.log(x), [25, 75], axis=0), axis=0).ravel()
print()
print(f"sample medians {med.round(4)} vs eta ({theta.eta1}, {theta.eta2})")
print(f"log-scale IQRs {iqr_z.round(4)} (wider sigma -> wider IQR)")
