import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import blslab
from blslab.cli import RunManifest, build_parser, dispatch
from blslab.datakit import COMPARISON_COLUMNS, Dataset, load_csv, save_csv
from blslab.distribution import BLSParams, joint_cdf, sample
from blslab.errors import DomainError
from blslab.estimation import fit_mle, profile_fit
from blslab.generators import GeneratorId, GeneratorParams, make_generator

LN = make_generator(GeneratorId.LOGNORMAL)
FIXTURE_CSV = str(Path(blslab.__file__).parent / "data" / "synthetic_lognormal_n15.csv")


@pytest.fixture()
def data_csv(tmp_path):
    pairs = sample(BLSParams(1.0, 2.0, 0.5, 0.3, 0.25), LN, 60, seed=3)
    p = tmp_path / "data.csv"
    save_csv(Dataset(pairs), p)
    return str(p)


# ---------------------------------------------------------------- eval

def test_eval_standard_lognormal_density_at_center(capsys):
    rc = dispatch(
        ["eval", "--model", "lognormal", "--theta", "1,1,1,1,0", "--pdf", "1,1"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert out == "0.159154943092\n"  # 1/(2 pi) to 12 digits


def test_eval_multiple_requests_in_flag_order(capsys):
    rc = dispatch(
        [
            "eval", "--model", "lognormal", "--theta", "1,1,1,1,0",
            "--pdf", "1,1", "--pdf", "2,2", "--logpdf", "1,1", "--quantile", "0.5",
        ]
    )
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 4
    assert float(lines[2]) == pytest.approx(math.log(float(lines[0])), rel=1e-10)
    # radial law of the log-normal family is chi-square(2)
    assert float(lines[3]) == pytest.approx(-2.0 * math.log(0.5), rel=1e-10)


def test_eval_cdf_is_a_probability(capsys):
    rc = dispatch(
        ["eval", "--model", "lognormal", "--theta", "1,1,0.5,0.5,0.3",
         "--cdf", "50,50", "--cdf", "1,1"]
    )
    assert rc == 0
    hi, mid = (float(v) for v in capsys.readouterr().out.strip().split("\n"))
    assert hi > 0.99
    assert 0.0 < mid < 1.0


def test_eval_cdf_prints_the_library_value(capsys):
    argv = ["eval", "--model", "logt", "--nu", "1", "--theta", "1,2,0.5,0.3,0.4",
            "--cdf", "1.3,2.1"]
    assert dispatch(argv) == 0
    theta = BLSParams(1.0, 2.0, 0.5, 0.3, 0.4)
    expected = joint_cdf(theta, make_generator("logt", nu=1.0), 1.3, 2.1)
    assert capsys.readouterr().out == f"{expected:.12g}\n"


def test_eval_cdf_of_a_law_whose_quantiles_leave_the_double_range(capsys):
    # logslash(nu = 1.01) has radial quantiles beyond 1e308; its joint CDF at
    # the medians is still the orthant probability 1/4 + asin(rho)/(2 pi)
    argv = ["eval", "--model", "logslash", "--nu", "1.01", "--theta", "1,2,0.5,0.3,0.4",
            "--cdf", "1,2"]
    assert dispatch(argv) == 0
    orthant = 0.25 + math.asin(0.4) / (2.0 * math.pi)
    assert float(capsys.readouterr().out) == pytest.approx(orthant, abs=1e-11)


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--model", "lognormal", "--theta", "1,1,1,1,0"],  # nothing asked
        ["eval", "--model", "nosuch", "--theta", "1,1,1,1,0", "--pdf", "1,1"],
        ["eval", "--model", "lognormal", "--theta", "1,1,1,0", "--pdf", "1,1"],
        ["eval", "--model", "lognormal", "--theta", "1,1,-1,1,0", "--pdf", "1,1"],
        ["eval", "--model", "lognormal", "--theta", "1,1,1,1,0", "--pdf", "1"],
        ["eval", "--model", "logt", "--theta", "1,1,1,1,0", "--pdf", "1,1"],  # nu missing
        ["frobnicate"],
        [],
        ["eval", "--model", "logt", "--nu", "inf", "--theta", "1,1,1,1,0", "--pdf", "1,1"],
        # extra-parameter flags and grids the family does not take
        ["fit", "--model", "lognormal", "--nu", "3", "--data", FIXTURE_CSV],
        ["diagnose", "--model", "lognormal", "--nu-grid", "2:4", "--data", FIXTURE_CSV],
        ["fit", "--model", "logt", "--xi-grid", "2:4", "--data", FIXTURE_CSV],
        ["fit", "--model", "logt", "--nu-grid", "0:3", "--data", FIXTURE_CSV],
        ["compare", "--data", FIXTURE_CSV, "--families", "logt,logt"],
        # grids are counted before they are built: at most 10,000 points
        ["fit", "--model", "logt", "--nu-grid", "2:3:1e-6", "--data", FIXTURE_CSV],
        ["fit", "--model", "logt", "--nu-grid", "2:3:1e-12", "--data", FIXTURE_CSV],
        ["fit", "--model", "logt", "--nu-grid", "2:inf", "--data", FIXTURE_CSV],
        # malformed comma lists, counts, seeds and grids
        ["eval", "--model", "lognormal", "--theta", "1,1,1,1", "--pdf", "1,1"],
        ["eval", "--model", "lognormal", "--theta", "1,x,1,1,0", "--pdf", "1,1"],
        ["eval", "--model", "lognormal", "--theta", "1,1,1,1,0", "--pdf", "1,2,3"],
        ["eval", "--model", "lognormal", "--theta", "1,1,1,1,0", "--pdf", "1,y"],
        ["simulate", "--model", "lognormal", "--n", "50,x", "--rho", "0.5", "--reps", "2"],
        ["simulate", "--model", "lognormal", "--n", "50", "--rho", "0.5,z", "--reps", "2"],
        ["simulate", "--model", "lognormal", "--n", "50", "--rho", "0.5", "--reps", "0"],
        ["simulate", "--model", "lognormal", "--n", "50", "--rho", "0.5", "--reps", "q"],
        ["sample", "--model", "lognormal", "--theta", "1,1,1,1,0", "--n", "5", "--seed", "-1",
         "--out", "never.csv"],
        ["sample", "--model", "lognormal", "--theta", "1,1,1,1,0", "--n", "5", "--seed", "s",
         "--out", "never.csv"],
        ["fit", "--model", "logt", "--nu-grid", "2", "--data", FIXTURE_CSV],
        ["fit", "--model", "logt", "--nu-grid", "a:3", "--data", FIXTURE_CSV],
        ["fit", "--model", "logt", "--nu-grid", "3:2", "--data", FIXTURE_CSV],
    ],
)
def test_usage_errors_exit_1(argv, capsys):
    assert dispatch(argv) == 1
    assert capsys.readouterr().err != ""


def test_bad_theta_reports_the_parameter_rule(capsys):
    argv = ["eval", "--model", "lognormal", "--theta", "1,1,0,1,0", "--pdf", "1,1"]
    assert dispatch(argv) == 1
    assert "sigma1 must be finite and > 0, got 0.0" in capsys.readouterr().err


def test_manifest_fields_in_order():
    man = RunManifest("sample", ("sample", "--n", "3"), {"n": 3}, 7, "1", 0.5)
    assert man.to_dict() == {"subcommand": "sample", "argv": ["sample", "--n", "3"],
                             "flags": {"n": 3}, "seed": 7, "version": "1", "duration_s": 0.5}
    assert list(man.to_dict()) == ["subcommand", "argv", "flags", "seed", "version", "duration_s"]


# ---------------------------------------------------------------- sample

def test_sample_writes_loadable_csv_with_manifest(tmp_path):
    out = tmp_path / "s.csv"
    rc = dispatch(
        ["sample", "--model", "logt", "--nu", "4", "--theta", "1,2,0.5,0.3,0.25",
         "--n", "25", "--seed", "7", "--out", str(out)]
    )
    assert rc == 0
    ds = load_csv(out)
    assert ds.n == 25
    man = json.loads((tmp_path / "s.csv.manifest.json").read_text())
    assert man["subcommand"] == "sample"
    assert man["seed"] == 7
    assert man["version"]
    assert man["flags"]["n"] == 25
    assert man["argv"][0] == "sample"
    assert man["duration_s"] >= 0.0


def test_sample_matches_library_call(tmp_path):
    out = tmp_path / "s.csv"
    dispatch(["sample", "--model", "lognormal", "--theta", "1,1,0.5,0.5,0.5",
              "--n", "15", "--seed", "2024", "--out", str(out)])
    direct = sample(BLSParams(1, 1, 0.5, 0.5, 0.5), LN, 15, seed=2024)
    assert np.array_equal(load_csv(out).pairs, direct)


def test_sample_rerun_is_bit_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["sample", "--model", "lognormal", "--theta", "1,1,0.5,0.5,0",
            "--n", "10", "--seed", "5", "--out", None]
    for out in (a, b):
        argv[-1] = str(out)
        assert dispatch(argv) == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.csv"
    dispatch(["sample", "--model", "lognormal", "--theta", "1,1,0.5,0.5,0",
              "--n", "10", "--seed", "6", "--out", str(c)])
    assert c.read_bytes() != a.read_bytes()


def test_manifest_replay_reproduces_output(tmp_path):
    out = tmp_path / "s.csv"
    argv = ["sample", "--model", "lognormal", "--theta", "1,1,0.5,0.5,0.2",
            "--n", "12", "--seed", "9", "--out", str(out)]
    assert dispatch(argv) == 0
    first = out.read_bytes()
    recorded = json.loads((tmp_path / "s.csv.manifest.json").read_text())["argv"]
    out.unlink()
    assert dispatch(recorded) == 0
    assert out.read_bytes() == first


# ------------------------------------------------------------------ fit

def test_fit_writes_fitresult_json(data_csv, capsys):
    rc = dispatch(["fit", "--model", "lognormal", "--data", data_csv])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["converged"] is True
    assert len(doc["std_errors"]) == 5
    assert set(doc["theta_hat"]) == {"eta1", "eta2", "sigma1", "sigma2", "rho"}
    assert doc["aic"] == pytest.approx(-2.0 * doc["log_lik"] + 10.0)


def test_fit_profiles_over_nu_grid(data_csv, capsys):
    rc = dispatch(["fit", "--model", "logt", "--nu-grid", "2:6:2", "--data", data_csv])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["converged"] is True
    assert "nu=" in doc["spec"]
    assert len(doc["std_errors"]) == 5


def test_fit_crosses_a_grid_with_a_fixed_extra(data_csv, capsys):
    argv = ["fit", "--model", "logpvii", "--xi-grid", "2:4", "--theta-gen", "3", "--data", data_csv]
    assert dispatch(argv) == 0
    grid = [GeneratorParams(xi=v, theta=3.0) for v in (2.0, 3.0, 4.0)]
    expected = profile_fit(load_csv(data_csv).pairs, "logpvii", grid)[1]
    assert capsys.readouterr().out == expected.to_json(indent=2) + "\n"


def test_fit_with_fixed_extras_is_one_fit(data_csv, capsys):
    assert dispatch(["fit", "--model", "logt", "--nu", "3", "--data", data_csv]) == 0
    expected = fit_mle(load_csv(data_csv).pairs, make_generator("logt", nu=3.0))
    assert capsys.readouterr().out == expected.to_json(indent=2) + "\n"


def test_fit_out_file_matches_stdout(data_csv, tmp_path, capsys):
    dispatch(["fit", "--model", "lognormal", "--data", data_csv])
    stdout_doc = capsys.readouterr().out
    out = tmp_path / "fit.json"
    dispatch(["fit", "--model", "lognormal", "--data", data_csv, "--out", str(out)])
    assert out.read_text() == stdout_doc
    assert (tmp_path / "fit.json.manifest.json").exists()


def test_fit_missing_file_is_runtime_error(capsys):
    assert dispatch(["fit", "--model", "lognormal", "--data", "no-such.csv"]) == 2
    assert "no-such.csv" in capsys.readouterr().err


def test_fit_too_small_sample_is_runtime_error(tmp_path, capsys):
    p = tmp_path / "tiny.csv"
    p.write_text("t1,t2\n1,2\n2,1\n", encoding="utf-8")
    assert dispatch(["fit", "--model", "lognormal", "--data", str(p)]) == 2


def test_fit_bad_csv_is_runtime_error(tmp_path, capsys):
    p = tmp_path / "bad.csv"
    p.write_text("t1,t2\n1,-2\n", encoding="utf-8")
    assert dispatch(["fit", "--model", "lognormal", "--data", str(p)]) == 2
    assert "positive" in capsys.readouterr().err


# ------------------------------------------------------------- simulate

def test_simulate_grid_layout_and_determinism(capsys):
    argv = ["simulate", "--model", "lognormal", "--n", "25,50", "--rho", "0,0.5",
            "--reps", "12", "--seed", "42"]
    assert dispatch(argv) == 0
    first = capsys.readouterr().out
    lines = first.strip().split("\n")
    assert len(lines) == 5  # header + 2 sizes x 2 correlations
    assert lines[0].split("\t")[:2] == ["n", "rho"]
    assert [ln.split("\t")[0] for ln in lines[1:]] == ["25", "25", "50", "50"]


def test_simulate_has_no_threads_flag(capsys):
    # simulate runs its replications serially; a worker count is no option
    argv = ["simulate", "--model", "lognormal", "--n", "25", "--rho", "0.25",
            "--reps", "10", "--seed", "1", "--threads", "3"]
    assert dispatch(argv) == 1
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value,rule", [("--n", "5", ">= 10"), ("--rho", "1.5", "(-1, 1)")])
def test_simulate_out_of_range_flags_exit_1(flag, value, rule, capsys):
    # MCConfig's checks of the sample sizes and correlations are flag mistakes
    argv = ["simulate", "--model", "lognormal", "--n", "50", "--rho", "0.5", "--reps", "2"]
    argv[argv.index(flag) + 1] = value
    assert dispatch(argv) == 1
    assert rule in capsys.readouterr().err


def test_simulate_numerical_failure_in_the_study_exits_2(monkeypatch, capsys):
    import blslab.cli as cli

    def failing_study(config):
        raise DomainError("a radial draw exceeds the double range")

    monkeypatch.setattr(cli, "run_study", failing_study)
    argv = ["simulate", "--model", "lognormal", "--n", "50", "--rho", "0.5", "--reps", "2"]
    assert dispatch(argv) == 2
    assert "DomainError: a radial draw" in capsys.readouterr().err


def test_simulate_writes_tsv_and_manifest(tmp_path):
    out = tmp_path / "mc.tsv"
    rc = dispatch(["simulate", "--model", "lognormal", "--n", "25", "--rho", "0",
                   "--reps", "10", "--seed", "3", "--out", str(out)])
    assert rc == 0
    man = json.loads((tmp_path / "mc.tsv.manifest.json").read_text())
    assert man["subcommand"] == "simulate"
    assert man["flags"]["reps"] == 10
    body = out.read_text().strip().split("\n")
    assert len(body) == 2
    fields = body[1].split("\t")
    assert len(fields) == len(body[0].split("\t"))
    assert int(fields[-1]) >= 0  # failed-count column


# ------------------------------------------------------------- diagnose

def test_diagnose_emits_qq_pairs(data_csv, capsys):
    rc = dispatch(["diagnose", "--model", "lognormal", "--data", data_csv])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "theoretical\tempirical"
    assert len(lines) == 61
    theo = [float(ln.split("\t")[0]) for ln in lines[1:]]
    emp = [float(ln.split("\t")[1]) for ln in lines[1:]]
    assert all(np.diff(theo) > 0)
    assert all(np.diff(emp) >= 0)


# -------------------------------------------------------------- summary

def test_summary_prints_stats_table(data_csv, capsys):
    rc = dispatch(["summary", "--data", data_csv])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 3
    assert lines[0].startswith("variable\tn\tminimum")
    assert lines[1].split("\t")[0] == "t1"
    assert lines[2].split("\t")[0] == "t2"
    assert lines[1].split("\t")[1] == "60"


# -------------------------------------------------------------- compare

def test_compare_tsv_and_json_outputs(data_csv, tmp_path, capsys):
    rc = dispatch(["compare", "--data", data_csv,
                   "--families", "lognormal,loglogistic,loglaplace"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "\t".join(COMPARISON_COLUMNS)
    assert len(lines) == 4
    out = tmp_path / "cmp.json"
    rc = dispatch(["compare", "--data", data_csv,
                   "--families", "LogNormal,loglogistic", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert {r["family"] for r in doc["rows"]} == {"lognormal", "loglogistic"}
    man = json.loads((tmp_path / "cmp.json.manifest.json").read_text())
    assert man["flags"]["families"] == ["lognormal", "loglogistic"]


def test_compare_unknown_family_is_usage_error(data_csv, capsys):
    assert dispatch(["compare", "--data", data_csv, "--families", "gauss"]) == 1
    assert "unknown model" in capsys.readouterr().err


# ----------------------------------------------------------------- help

def test_every_flag_is_documented_in_help():
    parser = build_parser()
    subactions = [
        a for a in parser._actions
        if isinstance(a, __import__("argparse")._SubParsersAction)
    ][0]
    assert set(subactions.choices) == {
        "eval", "sample", "fit", "simulate", "diagnose", "summary", "compare"
    }
    for name, sub in subactions.choices.items():
        text = sub.format_help()
        for action in sub._actions:
            for opt in action.option_strings:
                assert opt in text, f"{name}: {opt} missing from --help"


def test_help_exits_zero(capsys):
    assert dispatch(["--help"]) == 0
    assert "eval" in capsys.readouterr().out
    assert dispatch(["fit", "--help"]) == 0
    assert "--nu-grid" in capsys.readouterr().out


def test_version_flag(capsys):
    assert dispatch(["--version"]) == 0
    assert capsys.readouterr().out.startswith("blslab ")


def test_module_entry_point_runs_the_cli():
    src = str(Path(blslab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    for module in ("blslab.cli", "blslab"):
        proc = subprocess.run(
            [sys.executable, "-m", module, "--version"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stdout == f"blslab {blslab.__version__}\n"


def test_cli_commands_do_not_load_scipy_optimize_or_integrate(data_csv, tmp_path):
    # the library binds scipy.integrate and scipy.optimize lazily; none of
    # these commands needs them, so neither package may have been executed
    src = str(Path(blslab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    commands = [
        ["summary", "--data", data_csv],
        ["fit", "--data", data_csv, "--model", "logslash"],
        ["compare", "--data", data_csv],
        ["diagnose", "--data", data_csv, "--model", "logslash", "--nu", "4"],
        ["eval", "--model", "logslash", "--nu", "4", "--theta", "1,2,0.5,0.3,0.4",
         "--pdf", "1.1,1.9", "--quantile", "0.9"],
    ]
    script = (
        "import sys\n"
        "from blslab.cli import dispatch\n"
        f"codes = [dispatch(argv) for argv in {commands!r}]\n"
        "mods = ('scipy.optimize._minimize', 'scipy.integrate._quadpack_py')\n"
        "print(codes, [m for m in mods if m in sys.modules], file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=env, cwd=tmp_path, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip().splitlines()[-1] == "[0, 0, 0, 0, 0] []"


def test_import_and_elementary_commands_do_not_load_scipy(data_csv, tmp_path):
    # blslab imports scipy.special and concurrent.futures on first use:
    # importing the package loads neither, commands on families whose
    # generators are elementary never reach a special function, and no
    # family's sampler needs one
    src = str(Path(blslab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    models = [["lognormal"], ["logt", "--nu", "4"], ["logpvii", "--xi", "2", "--theta-gen", "1"],
              ["loghyperbolic", "--nu", "2"], ["loglaplace"], ["logslash", "--nu", "4"],
              ["logpexp", "--xi", "0.5"], ["loglogistic"]]
    commands = [
        ["summary", "--data", data_csv],
        ["fit", "--data", data_csv, "--model", "logt", "--nu", "4"],
        ["fit", "--data", data_csv, "--model", "loghyperbolic"],
        ["eval", "--model", "lognormal", "--theta", "1,2,0.5,0.3,0.4",
         "--pdf", "1.1,1.9", "--cdf", "1.1,1.9", "--quantile", "0.9"],
    ] + [["sample", "--model", *m, "--theta", "1,2,0.5,0.3,0.4", "--n", "50",
          "--out", f"{m[0]}.csv"] for m in models]
    laplace = ["fit", "--data", data_csv, "--model", "loglaplace"]
    script = (
        "import sys\n"
        "import blslab\n"
        "print([m for m in ('scipy', 'concurrent.futures') if m in sys.modules], file=sys.stderr)\n"
        "from blslab.cli import dispatch\n"
        f"codes = [dispatch(argv) for argv in {commands!r}]\n"
        "print(codes, 'scipy.special' in sys.modules, file=sys.stderr)\n"
        f"print(dispatch({laplace!r}), 'scipy.special' in sys.modules, file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=env, cwd=tmp_path, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip().splitlines()[-3:] == ["[]", f"{[0] * 12} False", "0 True"]
