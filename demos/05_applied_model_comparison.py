"""An applied end-to-end pass: load a dataset, summarize it, fit a basket
of candidate families, rank them by AIC, and check fit quality with a
radial QQ diagnostic.

Uses the bundled n=15 synthetic fixture so the demo reproduces exactly;
point `load_csv` at any two-column positive CSV to rerun it on real data.

Run:  python3 demos/05_applied_model_comparison.py
"""

import numpy as np

from blslab import (
    GeneratorId,
    GeneratorParams,
    compare_models,
    qq_mahalanobis,
    summarize,
    synthetic_fixture,
)

ds = synthetic_fixture()
print(f"dataset: {ds.source}, n={ds.n}")
print()

print(summarize(ds).to_tsv())

candidates = [
    GeneratorId.LOGNORMAL,
    GeneratorId.STUDENT_T,
    GeneratorId.LAPLACE,
    GeneratorId.POWER_EXP,
]
# small sample: keep the profiling grids coarse
grids = {
    GeneratorId.STUDENT_T: [GeneratorParams(nu=float(v)) for v in (3, 5, 8, 12)],
    GeneratorId.POWER_EXP: [GeneratorParams(xi=x) for x in (0.0, 0.3, 0.6)],
}

comparison = compare_models(ds, candidates, grids=grids)
print("model ranking (best AIC first):")
print(comparison.to_tsv())
if comparison.failures:
    for fam, msg in comparison.failures:
        print(f"  [failed] {fam}: {msg}")

best = comparison.rows[0]
print(f"winner: {best.fit.spec.label()}  "
      f"AIC={best.fit.aic:.2f}  BIC={best.fit.bic:.2f}")
print()

# Radial QQ: empirical squared Mahalanobis radii at the fitted parameters
# against the fitted family's theoretical quantiles. Points near the
# diagonal = the family explains the joint tail behavior.
qq = qq_mahalanobis(ds, best.fit)
print(f"radial QQ against {qq.reference} (theoretical vs empirical):")
for th, em in zip(qq.theoretical, qq.empirical):
    bar = "*" * max(1, int(round(4 * em)))
    print(f"  {th:7.3f} {em:7.3f}  {bar}")
corr = np.corrcoef(qq.theoretical, qq.empirical)[0, 1]
print(f"QQ correlation: {corr:.4f}")
