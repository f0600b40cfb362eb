"""Applied-analysis toolkit: CSV ingestion, descriptive statistics,
multi-model comparison tables, and Mahalanobis QQ diagnostics.

Conventions (documented because mixed conventions are common in applied
tables): SD uses the n-1 denominator; skewness and excess kurtosis use
biased 1/n central moments (skew = m3/m2^1.5, kurt_excess = m4/m2^2 - 3).
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import json
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .distribution import BLSParams, mahalanobis_sq
from .errors import (
    BlsError,
    DomainError,
    ParseError,
    PositivityError,
    SingularInformationError,
)
# fit_mle is not called here; bench/selftest.py checks that it stays bound
from .estimation import FitResult, _with_se, as_sample_matrix, fit_mle, profile_fit  # noqa: F401
from .generators import GeneratorId, GeneratorParams, _family_id, radial_isf

__all__ = [
    "ColumnStats",
    "Dataset",
    "ModelComparison",
    "ModelRow",
    "QQData",
    "SummaryStats",
    "compare_models",
    "default_grid",
    "load_csv",
    "qq_mahalanobis",
    "save_csv",
    "summarize",
    "synthetic_fixture",
    "COMPARISON_COLUMNS",
]

COMPARISON_COLUMNS = (
    "family",
    "eta1", "se_eta1", "eta2", "se_eta2",
    "sigma1", "se_sigma1", "sigma2", "se_sigma2",
    "rho", "se_rho",
    "extra", "loglik", "aic", "bic",
)

# the shipped n=15 fixture is sample(FIXTURE_THETA, lognormal, 15, FIXTURE_SEED)
FIXTURE_SEED = 2024
FIXTURE_THETA = BLSParams(1.0, 1.0, 0.5, 0.5, 0.5)
_FIXTURE_NAME = "synthetic_lognormal_n15.csv"


@dataclass(frozen=True)
class Dataset:
    """Positive bivariate sample. Model fitting needs n >= 5; smaller
    datasets are still representable (single pairs occur in QQ demos)."""

    pairs: np.ndarray
    labels: tuple[str, str] = ("t1", "t2")
    source: str = "synthetic"

    def __post_init__(self):
        arr = np.asarray(self.pairs, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 1:
            raise DomainError("Dataset needs an (n, 2) array with n >= 1")
        if not np.all(np.isfinite(arr)):
            raise DomainError("Dataset values must be finite")
        if np.any(arr <= 0.0):
            raise PositivityError("Dataset values must be strictly positive")
        arr.flags.writeable = False
        object.__setattr__(self, "pairs", arr)
        object.__setattr__(self, "labels", (str(self.labels[0]), str(self.labels[1])))

    @property
    def n(self) -> int:
        return self.pairs.shape[0]


def load_csv(path) -> Dataset:
    """Read a UTF-8 CSV with one header line and two positive numeric columns.

    Error messages carry 1-based data-row numbers (the header is row 0).
    """
    with open(path, newline="", encoding="utf-8") as fh:
        try:  # read whole, so non-UTF-8 bytes or an oversized field fail here
            reader = iter(list(csv.reader(fh)))
        except (UnicodeDecodeError, csv.Error) as e:
            raise ParseError(f"{path}: unreadable CSV: {e}") from None
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file, expected a header line") from None
        if len(header) != 2:
            raise ParseError(f"{path}: header must name exactly two columns")
        rows = []
        for i, rec in enumerate(reader, start=1):
            if not rec:
                continue
            if len(rec) != 2:
                raise ParseError(f"{path}: row {i}: expected two fields, got {len(rec)}")
            vals = []
            for field in rec:
                text = field.strip()
                if not text:
                    raise ParseError(f"{path}: row {i}: missing value")
                try:
                    v = float(text)
                except ValueError:
                    raise ParseError(
                        f"{path}: row {i}: not a number: {text!r}"
                    ) from None
                if math.isnan(v):
                    raise ParseError(f"{path}: row {i}: missing value")
                if not v > 0.0 or math.isinf(v):
                    raise PositivityError(
                        f"{path}: row {i}: values must be strictly positive, got {text}"
                    )
                vals.append(v)
            rows.append(vals)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return Dataset(np.array(rows), (header[0].strip(), header[1].strip()), str(path))


def save_csv(ds: Dataset, path) -> None:
    """Write a Dataset back to CSV; values round-trip exactly through load_csv."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(ds.labels)
        for a, b in ds.pairs:
            writer.writerow([repr(float(a)), repr(float(b))])


def synthetic_fixture() -> Dataset:
    """The shipped 15-pair synthetic dataset (see FIXTURE_SEED/FIXTURE_THETA)."""
    ref = resources.files("blslab").joinpath("data", _FIXTURE_NAME)
    with resources.as_file(ref) as p:
        ds = load_csv(p)
    return dataclasses.replace(ds, source="synthetic")


# ------------------------------------------------------------------ summary

@dataclass(frozen=True)
class ColumnStats:
    label: str
    n: int
    minimum: float
    median: float
    mean: float
    maximum: float
    sd: float
    cv_percent: float
    skewness: float | None  # None flags the degenerate constant column
    kurtosis_excess: float | None


@dataclass(frozen=True)
class SummaryStats:
    columns: tuple[ColumnStats, ColumnStats]

    def to_tsv(self) -> str:
        head = ("variable", "n", "minimum", "median", "mean", "maximum",
                "sd", "cv_percent", "skewness", "kurtosis_excess")
        lines = ["\t".join(head)]
        for c in self.columns:
            row = [c.label, str(c.n)]
            row += [f"{v:.6g}" for v in
                    (c.minimum, c.median, c.mean, c.maximum, c.sd, c.cv_percent)]
            row += ["NA" if c.skewness is None else f"{c.skewness:.6g}",
                    "NA" if c.kurtosis_excess is None else f"{c.kurtosis_excess:.6g}"]
            lines.append("\t".join(row))
        return "\n".join(lines) + "\n"


def _column_stats(label: str, v: np.ndarray) -> ColumnStats:
    n = v.size
    mean = float(np.mean(v))
    sd = float(np.std(v, ddof=1)) if n > 1 else 0.0
    m2 = float(np.mean((v - mean) ** 2))
    if m2 > 0.0:
        skew = float(np.mean((v - mean) ** 3)) / m2**1.5
        kurt = float(np.mean((v - mean) ** 4)) / m2**2 - 3.0
    else:
        skew = kurt = None
        sd = 0.0
    cv = 100.0 * sd / mean
    return ColumnStats(
        label=label,
        n=n,
        minimum=float(np.min(v)),
        median=float(np.median(v)),
        mean=mean,
        maximum=float(np.max(v)),
        sd=sd,
        cv_percent=cv,
        skewness=skew,
        kurtosis_excess=kurt,
    )


def summarize(ds: Dataset) -> SummaryStats:
    """Per-column descriptive statistics; invariant under row permutation."""
    return SummaryStats(
        columns=(
            _column_stats(ds.labels[0], ds.pairs[:, 0]),
            _column_stats(ds.labels[1], ds.pairs[:, 1]),
        )
    )


# ------------------------------------------------------------- comparison

# the profile axes of each extra-parameter family, crossed in this order, in hundredths
_GRID_AXES = {
    GeneratorId.STUDENT_T: {"nu": range(200, 1600, 100)},
    GeneratorId.PEARSON_VII: {"xi": (200, 300, 400, 500, 600, 800), "theta": (500, 1000, 1600, 2200, 3000)},
    GeneratorId.HYPERBOLIC: {"nu": range(100, 700, 100)},
    GeneratorId.SLASH: {"nu": range(200, 1100, 100)},
    GeneratorId.POWER_EXP: {"xi": range(-50, 101)},
}


def default_grid(family: GeneratorId | str) -> list[GeneratorParams] | None:
    """Profiling grids for the extra-parameter families (None: no extras).

    The logpvii grid crosses xi with theta, but theta is confounded with the
    scales (see blslab.generators): at each xi every theta reaches the same
    maximum, and profile_fit then reports the smallest theta.
    """
    axes = _GRID_AXES.get(_family_id(family))
    if axes is None:
        return None
    return [GeneratorParams(**{a: k / 100 for a, k in zip(axes, point)})
            for point in itertools.product(*axes.values())]


@dataclass(frozen=True)
class ModelRow:
    family: GeneratorId
    fit: FitResult
    aic_rank: int
    bic_rank: int
    best_aic: bool


@dataclass(frozen=True)
class ModelComparison:
    rows: tuple[ModelRow, ...]  # sorted by AIC rank
    failures: tuple[tuple[str, str], ...]  # (family value, message)

    def best(self) -> ModelRow:
        return self.rows[0]

    def to_tsv(self) -> str:
        lines = ["\t".join(COMPARISON_COLUMNS)]
        for row in self.rows:
            th = row.fit.theta_hat
            se = row.fit.std_errors or (math.nan,) * 5
            est = (th.eta1, th.eta2, th.sigma1, th.sigma2, th.rho)
            rec = [row.family.value]
            for e, s in zip(est, se):
                rec += [f"{e:.6g}", f"{s:.6g}"]
            rec += [
                row.fit.spec.param_text(),
                f"{row.fit.log_lik:.6g}",
                f"{row.fit.aic:.6g}",
                f"{row.fit.bic:.6g}",
            ]
            lines.append("\t".join(rec))
        return "\n".join(lines) + "\n"

    def to_json(self, **kw) -> str:
        doc = {
            "rows": [
                {
                    "family": r.family.value,
                    "fit": r.fit.to_dict(),
                    "extra": r.fit.spec.param_text(),
                    "aic_rank": r.aic_rank,
                    "bic_rank": r.bic_rank,
                    "best_aic": r.best_aic,
                }
                for r in self.rows
            ],
            "failures": [list(f) for f in self.failures],
        }
        return json.dumps(doc, **kw)


def _fit_family(x: np.ndarray, family: GeneratorId, grid) -> FitResult:
    # one profile (a family without extras is a one-point grid); a singular
    # information leaves std_errors None
    fit = profile_fit(x, family, grid or [GeneratorParams()], compute_se=False)[1]
    try:
        return _with_se(fit, x)
    except SingularInformationError:
        return fit


def compare_models(
    ds: Dataset,
    families: list[GeneratorId] | None = None,
    grids: dict[GeneratorId, list[GeneratorParams]] | None = None,
) -> ModelComparison:
    """Fit every requested family and rank the results by AIC and BIC.

    Families whose fit fails are recorded and the comparison proceeds with
    the survivors. AIC ties break by family enumeration order.
    """
    if families is None:
        families = list(GeneratorId)
    families = [_family_id(f) for f in families]
    if not families:
        raise DomainError("compare_models needs at least one family")
    if len(set(families)) != len(families):
        raise DomainError("duplicate families in comparison")
    x = as_sample_matrix(ds.pairs)
    grids = grids or {}
    enum_pos = {gid: k for k, gid in enumerate(GeneratorId)}

    fits, failures = [], []
    for family in families:
        try:
            fit = _fit_family(x, family, grids.get(family, default_grid(family)))
        except BlsError as exc:
            failures.append((family.value, f"{type(exc).__name__}: {exc}"))
            continue
        if fit.converged:
            fits.append((family, fit))
        else:
            failures.append((family.value, "fit did not converge"))
    if not fits:
        raise DomainError("every family failed to fit; nothing to compare")

    by_aic = sorted(fits, key=lambda p: (p[1].aic, enum_pos[p[0]]))
    by_bic = sorted(fits, key=lambda p: (p[1].bic, enum_pos[p[0]]))
    aic_rank = {f: i + 1 for i, (f, _) in enumerate(by_aic)}
    bic_rank = {f: i + 1 for i, (f, _) in enumerate(by_bic)}
    rows = tuple(
        ModelRow(
            family=f,
            fit=fit,
            aic_rank=aic_rank[f],
            bic_rank=bic_rank[f],
            best_aic=aic_rank[f] == 1,
        )
        for f, fit in by_aic
    )
    return ModelComparison(rows=rows, failures=tuple(failures))


# -------------------------------------------------------------------- QQ

@dataclass(frozen=True)
class QQData:
    theoretical: tuple[float, ...]
    empirical: tuple[float, ...]
    reference: str  # label of the radial reference law

    def to_tsv(self) -> str:
        lines = ["theoretical\tempirical"]
        for t, e in zip(self.theoretical, self.empirical):
            lines.append(f"{t:.10g}\t{e:.10g}")
        return "\n".join(lines) + "\n"


def qq_mahalanobis(ds, fit: FitResult) -> QQData:
    """Squared-Mahalanobis QQ pairs at plotting positions (i - 0.5)/n.

    Accepts a Dataset or a bare (n, 2) array (handy for single pairs).
    """
    if not fit.converged:
        raise DomainError("qq_mahalanobis requires a converged fit")
    pairs = ds.pairs if isinstance(ds, Dataset) else np.asarray(ds, dtype=float)
    if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.shape[0] < 1:
        raise DomainError("qq_mahalanobis needs an (n, 2) sample")
    if np.any(pairs <= 0.0) or not np.all(np.isfinite(pairs)):
        raise PositivityError("sample values must be strictly positive")
    n = pairs.shape[0]
    emp = np.sort(mahalanobis_sq(fit.theta_hat, pairs[:, 0], pairs[:, 1]))
    # the quantiles at p_i = (i - 0.5)/n, as one call at tail probabilities 1 - p_i
    theo = radial_isf(fit.spec, 1.0 - (np.arange(1, n + 1) - 0.5) / n)
    return QQData(
        theoretical=tuple(float(q) for q in theo),
        empirical=tuple(float(e) for e in np.atleast_1d(emp)),
        reference=fit.spec.label(),
    )
