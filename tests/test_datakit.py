import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blslab.datakit as dk
import blslab.estimation as est
from blslab.datakit import (
    COMPARISON_COLUMNS,
    FIXTURE_SEED,
    FIXTURE_THETA,
    Dataset,
    compare_models,
    default_grid,
    load_csv,
    qq_mahalanobis,
    save_csv,
    summarize,
    synthetic_fixture,
)
from blslab.distribution import BLSParams, mahalanobis_quantile, mahalanobis_sq, sample
from blslab.errors import (
    BlsError,
    DomainError,
    ParseError,
    PositivityError,
    RootFindingError,
    SingularInformationError,
)
from blslab.estimation import FitResult, fit_mle, log_likelihood
from blslab.generators import GeneratorId, GeneratorParams, make_generator

LN = make_generator(GeneratorId.LOGNORMAL)
LAP = make_generator(GeneratorId.LAPLACE)


# ----------------------------------------------------------------- Dataset

def test_dataset_basic():
    ds = Dataset(np.array([[1.0, 2.0], [3.0, 4.0]]), labels=("a", "b"))
    assert ds.n == 2
    assert ds.labels == ("a", "b")
    assert not ds.pairs.flags.writeable  # immutable snapshot


def test_dataset_single_pair_allowed():
    assert Dataset(np.array([[1.0, 2.0]])).n == 1


@pytest.mark.parametrize(
    "pairs,exc",
    [
        ([[1.0, 2.0, 3.0]], DomainError),
        ([1.0, 2.0], DomainError),
        ([[1.0, np.nan]], DomainError),
        ([[1.0, np.inf]], DomainError),
        ([[1.0, 0.0]], PositivityError),
        ([[1.0, -2.0]], PositivityError),
    ],
)
def test_dataset_rejects(pairs, exc):
    with pytest.raises(exc):
        Dataset(np.array(pairs, dtype=float))


# ----------------------------------------------------------------- fixture

def test_fixture_matches_its_generating_recipe():
    ds = synthetic_fixture()
    assert ds.n == 15
    regen = sample(FIXTURE_THETA, LN, 15, seed=FIXTURE_SEED)
    assert np.array_equal(ds.pairs, regen)


def test_fixture_roundtrips_through_csv(tmp_path):
    ds = synthetic_fixture()
    p = tmp_path / "out.csv"
    save_csv(ds, p)
    back = load_csv(p)
    assert np.array_equal(back.pairs, ds.pairs)
    assert back.labels == ds.labels


def test_save_csv_is_exact_for_awkward_floats(tmp_path):
    vals = np.array([[1e-3, 12345.6789012345678], [math.pi, 2.0 / 3.0]])
    p = tmp_path / "x.csv"
    save_csv(Dataset(vals), p)
    assert np.array_equal(load_csv(p).pairs, vals)


# ----------------------------------------------------------------- load_csv

def _write(tmp_path, text):
    p = tmp_path / "in.csv"
    if isinstance(text, bytes):
        p.write_bytes(text)
    else:
        p.write_text(text, encoding="utf-8")
    return p


def test_load_csv_happy_path(tmp_path):
    p = _write(tmp_path, "t1,t2\n1.0,2.0\n\n3.5,0.25\n")
    ds = load_csv(p)
    assert ds.n == 2  # blank line skipped
    assert ds.labels == ("t1", "t2")
    assert ds.pairs[1, 1] == 0.25
    assert ds.source == str(p)


def test_load_csv_single_row(tmp_path):
    ds = load_csv(_write(tmp_path, "t1,t2\n1.0,2.0\n"))
    assert ds.n == 1


@pytest.mark.parametrize(
    "text,exc,fragment",
    [
        ("", ParseError, "empty file"),
        ("t1,t2\n", ParseError, "no data rows"),
        ("t1,t2,t3\n1,2,3\n", ParseError, "exactly two columns"),
        ("t1,t2\n1.0,2.0,3.0\n", ParseError, "row 1"),
        ("t1,t2\n1.0\n", ParseError, "row 1"),
        ("t1,t2\nabc,2.0\n", ParseError, "not a number"),
        ("t1,t2\n1.0,\n", ParseError, "missing value"),
        ("t1,t2\nnan,2.0\n", ParseError, "missing value"),
        ("t1,t2\n0,1\n", PositivityError, "row 1"),
        ("t1,t2\n1.0,-3\n", PositivityError, "positive"),
        ("t1,t2\ninf,1\n", PositivityError, "row 1"),
        ("t1,t2\n1.0,2.0\n1.0,0.0\n", PositivityError, "row 2"),
        pytest.param(b"t1,t2\n1.0,\xff\xfe\n", ParseError, "unreadable CSV", id="non-utf8"),
        pytest.param(b"t1,t2\n1.0," + b"1" * 140_000 + b"\n", ParseError, "unreadable CSV",
                     id="oversized-field"),
    ],
)
def test_load_csv_rejects(tmp_path, text, exc, fragment):
    p = _write(tmp_path, text)
    with pytest.raises(exc, match=fragment) as info:
        load_csv(p)
    assert str(p) in str(info.value)


_CSV_FRAGMENTS = st.sampled_from([
    b"t1,t2\n", b"t1", b",", b"\n", b"\r\n", b"\r", b'"', b" ", b"1.5", b"2", b"0", b"-1",
    b"nan", b"inf", b"1e400", b"1e-320", b"abc", b"\xff", b"\x00", b"1" * 140_000,
])


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.one_of(
    st.binary(max_size=64),
    st.lists(_CSV_FRAGMENTS, max_size=16).map(b"".join),
))
def test_load_csv_returns_a_dataset_or_raises_a_bls_error(tmp_path_factory, content):
    p = tmp_path_factory.getbasetemp() / "hostile.csv"
    p.write_bytes(content)
    try:
        ds = load_csv(p)
    except BlsError:
        return
    assert ds.n >= 1 and np.all(np.isfinite(ds.pairs)) and np.all(ds.pairs > 0.0)


# ---------------------------------------------------------------- summarize

def test_summary_simple_column():
    ds = Dataset(np.array([[1.0, 1.0], [2.0, 1.0], [3.0, 1.0]]), labels=("u", "c"))
    s = summarize(ds)
    u = s.columns[0]
    assert (u.minimum, u.median, u.mean, u.maximum) == (1.0, 2.0, 2.0, 3.0)
    assert u.sd == pytest.approx(1.0)  # n-1 denominator
    assert u.cv_percent == pytest.approx(50.0)
    assert u.skewness == pytest.approx(0.0, abs=1e-14)
    # biased moments: m2 = 2/3, m4 = 2/3 -> m4/m2^2 - 3 = -1.5
    assert u.kurtosis_excess == pytest.approx(-1.5)


def test_summary_constant_column_flags_degenerate():
    c = summarize(Dataset(np.array([[1.0, 7.0], [2.0, 7.0]]))).columns[1]
    assert c.sd == 0.0
    assert c.cv_percent == 0.0
    assert c.skewness is None
    assert c.kurtosis_excess is None


def test_summary_two_point_column():
    u = summarize(Dataset(np.array([[1.0, 1.0], [3.0, 1.0]]))).columns[0]
    assert u.sd == pytest.approx(math.sqrt(2.0))
    assert u.skewness == pytest.approx(0.0, abs=1e-14)
    assert u.kurtosis_excess == pytest.approx(-2.0)  # m4/m2^2 = 1


def test_summary_permutation_invariant():
    rng = np.random.default_rng(3)
    base = rng.lognormal(size=(40, 2))
    a = summarize(Dataset(base))
    b = summarize(Dataset(base[rng.permutation(40)]))
    for ca, cb in zip(a.columns, b.columns):
        for field in ("minimum", "median", "mean", "maximum", "sd",
                      "cv_percent", "skewness", "kurtosis_excess"):
            assert getattr(ca, field) == pytest.approx(getattr(cb, field), rel=1e-10)


def test_summary_tsv_layout():
    txt = summarize(synthetic_fixture()).to_tsv()
    lines = txt.strip().split("\n")
    assert len(lines) == 3
    assert lines[0].split("\t")[0] == "variable"
    assert lines[0].split("\t")[-1] == "kurtosis_excess"
    assert lines[1].split("\t")[0] == "t1"


def test_summary_tsv_marks_degenerate_as_na():
    ds = Dataset(np.array([[1.0, 7.0], [2.0, 7.0]]))
    row = summarize(ds).to_tsv().strip().split("\n")[2].split("\t")
    assert row[-2:] == ["NA", "NA"]


# -------------------------------------------------------------- default_grid

def test_default_grids_match_documented_designs():
    t = default_grid(GeneratorId.STUDENT_T)
    assert [p.nu for p in t] == [float(v) for v in range(2, 16)]
    pvii = default_grid(GeneratorId.PEARSON_VII)
    assert len(pvii) == 30
    assert {p.theta for p in pvii} == {5.0, 10.0, 16.0, 22.0, 30.0}
    pexp = default_grid(GeneratorId.POWER_EXP)
    assert len(pexp) == 151
    assert pexp[0].xi == -0.5 and pexp[-1].xi == 1.0
    assert default_grid(GeneratorId.LOGNORMAL) is None
    assert default_grid(GeneratorId.LAPLACE) is None
    # every grid point, in order
    nus = {GeneratorId.STUDENT_T: range(2, 16), GeneratorId.HYPERBOLIC: range(1, 7),
           GeneratorId.SLASH: range(2, 11)}
    for family, vs in nus.items():
        assert default_grid(family) == [GeneratorParams(nu=float(v)) for v in vs]
    assert pvii == [GeneratorParams(xi=x, theta=th) for x in (2.0, 3.0, 4.0, 5.0, 6.0, 8.0)
                    for th in (5.0, 10.0, 16.0, 22.0, 30.0)]
    assert pexp == [GeneratorParams(xi=round(-0.5 + 0.01 * k, 2)) for k in range(151)]
    assert default_grid("loglogistic") is None


# ------------------------------------------------------------ compare_models

@pytest.fixture(scope="module")
def ln_ds():
    return Dataset(sample(BLSParams(1.0, 1.0, 0.5, 0.5, 0.5), LN, 120, seed=11))


def test_single_family_information_criteria(ln_ds):
    cmp = compare_models(ln_ds, families=[GeneratorId.LOGNORMAL])
    row = cmp.best()
    assert row.family is GeneratorId.LOGNORMAL
    assert row.aic_rank == 1 and row.bic_rank == 1 and row.best_aic
    ll = log_likelihood(row.fit.theta_hat, LN, ln_ds.pairs)
    assert row.fit.log_lik == pytest.approx(ll, rel=1e-12)
    assert row.fit.aic == pytest.approx(-2.0 * ll + 10.0, rel=1e-12)
    assert row.fit.bic == pytest.approx(-2.0 * ll + 5.0 * math.log(120), rel=1e-12)


def test_comparison_ranks_are_permutations(ln_ds):
    fams = [GeneratorId.LOGNORMAL, GeneratorId.LOGISTIC, GeneratorId.LAPLACE]
    cmp = compare_models(ln_ds, families=fams)
    k = len(cmp.rows)
    assert sorted(r.aic_rank for r in cmp.rows) == list(range(1, k + 1))
    assert sorted(r.bic_rank for r in cmp.rows) == list(range(1, k + 1))
    assert [r.aic_rank for r in cmp.rows] == list(range(1, k + 1))  # sorted by AIC
    assert sum(r.best_aic for r in cmp.rows) == 1


def test_grid_override_is_honored(ln_ds):
    cmp = compare_models(
        ln_ds,
        families=[GeneratorId.STUDENT_T],
        grids={GeneratorId.STUDENT_T: [GeneratorParams(nu=7.0)]},
    )
    assert cmp.best().fit.spec.params.nu == 7.0


def test_heavy_tailed_sample_prefers_its_own_family():
    # generate from the Bessel-K0 family and let it compete against a light
    # grid of rivals; the generating family should top the AIC table on a
    # strong majority of replicates
    fams = [
        GeneratorId.LOGNORMAL,
        GeneratorId.STUDENT_T,
        GeneratorId.LAPLACE,
        GeneratorId.POWER_EXP,
    ]
    grids = {
        GeneratorId.STUDENT_T: [GeneratorParams(nu=v) for v in (3.0, 7.0, 15.0)],
        GeneratorId.POWER_EXP: [GeneratorParams(xi=v) for v in (0.3, 0.7, 1.0)],
    }
    wins = 0
    for seed in range(12):
        pairs = sample(BLSParams(1.0, 1.0, 0.5, 0.5, 0.5), LAP, 150, seed=seed)
        cmp = compare_models(Dataset(pairs), families=fams, grids=grids)
        wins += cmp.best().family is GeneratorId.LAPLACE
    assert wins >= 9


def test_failures_are_recorded_and_survivors_ranked(ln_ds, monkeypatch):
    real = dk._fit_family

    def flaky(x, family, grid):
        if family is GeneratorId.LOGISTIC:
            raise RootFindingError("synthetic failure")
        return real(x, family, grid)

    monkeypatch.setattr(dk, "_fit_family", flaky)
    cmp = compare_models(
        ln_ds, families=[GeneratorId.LOGNORMAL, GeneratorId.LOGISTIC]
    )
    assert [r.family for r in cmp.rows] == [GeneratorId.LOGNORMAL]
    assert cmp.failures == (("loglogistic", "RootFindingError: synthetic failure"),)


def test_unconverged_fit_counts_as_failure(ln_ds, monkeypatch):
    real = dk._fit_family

    def stubborn(x, family, grid):
        fit = real(x, family, grid)
        if family is GeneratorId.LOGNORMAL:
            fit = dataclasses.replace(fit, converged=False)
        return fit

    monkeypatch.setattr(dk, "_fit_family", stubborn)
    cmp = compare_models(
        ln_ds, families=[GeneratorId.LOGNORMAL, GeneratorId.LOGISTIC]
    )
    assert [r.family for r in cmp.rows] == [GeneratorId.LOGISTIC]
    assert cmp.failures == (("lognormal", "fit did not converge"),)


def test_all_families_failing_raises(ln_ds, monkeypatch):
    def broken(x, family, grid):
        raise RootFindingError("nope")

    monkeypatch.setattr(dk, "_fit_family", broken)
    with pytest.raises(DomainError, match="every family failed"):
        compare_models(ln_ds, families=[GeneratorId.LOGNORMAL])


@pytest.mark.parametrize("singular", [False, True])
def test_compare_fits_each_grid_point_once(singular, monkeypatch):
    # standard errors go on the fit in hand; a singular information leaves
    # them None and fits nothing again
    if singular:
        def no_information(fit, data):
            raise SingularInformationError("synthetic")

        monkeypatch.setattr(est, "standard_errors", no_information)
    calls, real = [], est.fit_mle
    counted = lambda *a, **kw: calls.append(a[1].label()) or real(*a, **kw)  # noqa: E731
    monkeypatch.setattr(est, "fit_mle", counted)
    grid = [GeneratorParams(nu=v) for v in (2.0, 4.0, 8.0)]
    pairs = sample(BLSParams(1.0, 2.0, 0.5, 0.3, 0.4), make_generator("logt", nu=4.0), 60, seed=5)
    cmp = compare_models(Dataset(pairs), families=[GeneratorId.LOGNORMAL, GeneratorId.STUDENT_T],
                         grids={GeneratorId.STUDENT_T: grid})
    assert cmp.failures == ()
    assert {r.family for r in cmp.rows} == {GeneratorId.LOGNORMAL, GeneratorId.STUDENT_T}
    assert all((r.fit.std_errors is None) == singular for r in cmp.rows)
    assert sorted(calls) == ["lognormal", "logt(nu=2)", "logt(nu=4)", "logt(nu=8)"]


def test_empty_and_duplicate_family_lists_raise(ln_ds):
    with pytest.raises(DomainError):
        compare_models(ln_ds, families=[])
    with pytest.raises(DomainError):
        compare_models(
            ln_ds, families=[GeneratorId.LOGNORMAL, GeneratorId.LOGNORMAL]
        )


def test_comparison_tsv_layout(ln_ds):
    cmp = compare_models(
        ln_ds, families=[GeneratorId.LOGNORMAL, GeneratorId.LOGISTIC]
    )
    lines = cmp.to_tsv().strip().split("\n")
    assert lines[0] == "\t".join(COMPARISON_COLUMNS)
    assert len(lines) == 3
    for line in lines[1:]:
        fields = line.split("\t")
        assert len(fields) == len(COMPARISON_COLUMNS)
        float(fields[13])  # aic parses
    assert lines[1].split("\t")[0] == cmp.best().family.value


def test_extra_column_is_the_label_parameter_text(ln_ds):
    # the TSV and JSON extra column and the fit's spec label print the
    # parameters through one formatter
    cmp = compare_models(
        ln_ds,
        families=[GeneratorId.LOGNORMAL, GeneratorId.PEARSON_VII],
        grids={GeneratorId.PEARSON_VII: [GeneratorParams(xi=2.5, theta=10.0)]},
    )
    lines = cmp.to_tsv().strip().split("\n")[1:]
    recs = json.loads(cmp.to_json())["rows"]
    col = COMPARISON_COLUMNS.index("extra")
    texts = {}
    for row, line, rec in zip(cmp.rows, lines, recs):
        extra = line.split("\t")[col]
        assert rec["extra"] == extra == row.fit.spec.param_text()
        assert rec["fit"]["spec"] == (f"{row.family.value}({extra})" if extra else row.family.value)
        texts[row.family] = extra
    assert texts == {GeneratorId.LOGNORMAL: "", GeneratorId.PEARSON_VII: "xi=2.5,theta=10"}


def test_comparison_json_roundtrip(ln_ds):
    cmp = compare_models(ln_ds, families=[GeneratorId.LOGNORMAL])
    doc = json.loads(cmp.to_json())
    assert doc["rows"][0]["family"] == "lognormal"
    assert doc["rows"][0]["aic_rank"] == 1
    assert doc["failures"] == []


def test_comparison_fixture_smoke():
    # the shipped n=15 dataset is small but every closed-form family fits it
    cmp = compare_models(
        synthetic_fixture(),
        families=[GeneratorId.LOGNORMAL, GeneratorId.LOGISTIC, GeneratorId.LAPLACE],
    )
    assert len(cmp.rows) == 3
    assert cmp.rows[0].fit.aic <= cmp.rows[1].fit.aic <= cmp.rows[2].fit.aic


# ------------------------------------------------------------------- QQ

@pytest.fixture(scope="module")
def ln_fit(ln_ds):
    return fit_mle(ln_ds.pairs, LN)


def test_qq_agrees_with_direct_computation(ln_ds, ln_fit):
    qq = qq_mahalanobis(ln_ds, ln_fit)
    assert qq.reference == ln_fit.spec.label()
    d2 = mahalanobis_sq(ln_fit.theta_hat, ln_ds.pairs[:, 0], ln_ds.pairs[:, 1])
    assert qq.empirical == tuple(np.sort(d2))
    # lognormal radial law is chi-square(2): quantile -2 log(1 - p)
    n = ln_ds.n
    expect = [-2.0 * math.log1p(-(i - 0.5) / n) for i in range(1, n + 1)]
    assert np.allclose(qq.theoretical, expect, rtol=1e-12)
    assert np.all(np.diff(qq.theoretical) > 0)


def test_qq_large_sample_tracks_identity():
    pairs = sample(BLSParams(1.0, 1.0, 0.5, 0.5, 0.3), LN, 1000, seed=5)
    fit = fit_mle(pairs, LN)
    qq = qq_mahalanobis(Dataset(pairs), fit)
    theo = np.asarray(qq.theoretical)
    emp = np.asarray(qq.empirical)
    slope = float(np.sum(theo * emp) / np.sum(theo * theo))
    assert 0.9 < slope < 1.1
    assert np.corrcoef(theo, emp)[0, 1] > 0.99


@pytest.mark.parametrize("n", [50, 4096 + 100])
def test_qq_theoretical_equals_scalar_quantiles(ln_fit, n):
    # one vectorized radial_isf call: bit for bit the scalar quantiles
    spec = make_generator("loglaplace")
    fit = dataclasses.replace(ln_fit, spec=spec)
    pairs = sample(fit.theta_hat, spec, n, seed=11)
    theo = np.array(qq_mahalanobis(pairs, fit).theoretical)
    scalar = np.array([mahalanobis_quantile(spec, (i - 0.5) / n) for i in range(1, n + 1)])
    assert np.array_equal(theo, scalar)


def test_qq_single_pair(ln_fit):
    pair = np.array([[1.3, 0.8]])
    qq = qq_mahalanobis(pair, ln_fit)
    assert len(qq.theoretical) == 1
    assert qq.theoretical[0] == pytest.approx(-2.0 * math.log(0.5), rel=1e-12)
    d2 = mahalanobis_sq(ln_fit.theta_hat, pair[:, 0], pair[:, 1])
    assert qq.empirical[0] == float(d2[0])


def test_qq_accepts_dataset_or_array(ln_ds, ln_fit):
    a = qq_mahalanobis(ln_ds, ln_fit)
    b = qq_mahalanobis(ln_ds.pairs, ln_fit)
    assert a == b


def test_qq_rejects_unconverged_fit(ln_ds, ln_fit):
    bad = dataclasses.replace(ln_fit, converged=False)
    with pytest.raises(DomainError, match="converged"):
        qq_mahalanobis(ln_ds, bad)


def test_qq_rejects_nonpositive_sample(ln_fit):
    with pytest.raises(PositivityError):
        qq_mahalanobis(np.array([[1.0, -1.0]]), ln_fit)


def test_qq_tsv_layout(ln_fit):
    qq = qq_mahalanobis(np.array([[1.0, 2.0], [0.5, 0.7]]), ln_fit)
    lines = qq.to_tsv().strip().split("\n")
    assert lines[0] == "theoretical\tempirical"
    assert len(lines) == 3
    for line in lines[1:]:
        t, e = line.split("\t")
        float(t), float(e)
