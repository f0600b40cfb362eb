import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import blslab
import blslab.montecarlo as mc
from blslab.distribution import BLSParams
from blslab.errors import DomainError
from blslab.generators import GeneratorId, make_generator
from blslab.montecarlo import MCConfig, bias_mse, replication_seed, run_study

LN = make_generator(GeneratorId.LOGNORMAL)
THETA = BLSParams(1.0, 1.0, 0.5, 0.5, 0.0)


# ---------------------------------------------------------------- bias_mse

def test_bias_mse_exact_recovery_is_zero():
    assert bias_mse([1.0, 1.0, 1.0], 1.0) == (0.0, 0.0)


def test_bias_mse_symmetric_spread():
    b, m = bias_mse([0.9, 1.1], 1.0)
    assert b == pytest.approx(0.0, abs=1e-15)
    assert m == pytest.approx(0.01, rel=1e-12)


def test_bias_mse_single_estimate():
    b, m = bias_mse([1.2], 1.0)
    assert b == pytest.approx(0.2, rel=1e-12)
    assert m == pytest.approx(0.04, rel=1e-12)


def test_bias_mse_empty_raises():
    with pytest.raises(DomainError):
        bias_mse([], 1.0)


def test_mse_dominates_squared_bias():
    rng = np.random.default_rng(5)
    for _ in range(25):
        est = rng.normal(2.0, 0.3, size=rng.integers(1, 40))
        b, m = bias_mse(est, 2.0)
        assert m >= b * b - 1e-12


def test_single_replication_mse_equals_squared_bias():
    b, m = bias_mse([2.7], 3.0)
    assert m == pytest.approx(b * b, rel=1e-14)


# ---------------------------------------------------------------- seeds

def test_replication_seed_deterministic():
    assert replication_seed(9, 1, 2, 3) == replication_seed(9, 1, 2, 3)


def test_replication_seeds_unique_across_grid():
    seeds = {
        replication_seed(7, i, j, k)
        for i in range(4)
        for j in range(4)
        for k in range(300)
    }
    assert len(seeds) == 4 * 4 * 300


def test_replication_seed_differs_across_masters():
    assert replication_seed(1, 0, 0, 0) != replication_seed(2, 0, 0, 0)


def test_negative_or_fractional_master_seed_is_a_domain_error():
    for seed in (-1, 1.5):
        with pytest.raises(DomainError, match="seed"):
            replication_seed(seed, 0, 0, 0)
    with pytest.raises(DomainError, match="seed"):
        run_study(MCConfig(LN, THETA, (25,), (0.0,), 2, -1))


# ---------------------------------------------------------------- config

def test_config_validation():
    with pytest.raises(DomainError):
        MCConfig(LN, THETA, (25,), (0.0,), 0, 1)
    with pytest.raises(DomainError):
        MCConfig(LN, THETA, (9,), (0.0,), 10, 1)
    with pytest.raises(DomainError):
        MCConfig(LN, THETA, (), (0.0,), 10, 1)
    with pytest.raises(DomainError):
        MCConfig(LN, THETA, (25,), (1.0,), 10, 1)
    with pytest.raises(DomainError):
        MCConfig(LN, THETA, (25,), (), 10, 1)


# ---------------------------------------------------------------- run_study

@pytest.fixture(scope="module")
def small_report():
    cfg = MCConfig(LN, THETA, (25, 50), (0.0, 0.5), 30, 2024)
    return run_study(cfg)


def test_report_grid_shape(small_report):
    cells = small_report.cells
    assert [(c.n, c.rho) for c in cells] == [
        (25, 0.0), (25, 0.5), (50, 0.0), (50, 0.5)]


def test_report_counts(small_report):
    for c in small_report.cells:
        assert c.used + c.failed == 30
        assert not c.alarm


def test_identical_across_worker_counts(small_report):
    cfg = MCConfig(LN, THETA, (25, 50), (0.0, 0.5), 30, 2024)
    assert run_study(cfg, workers=4) == small_report
    assert run_study(cfg, workers=3) == small_report


def test_a_sample_beyond_double_range_fails_its_replication():
    # logt(0.1) at sigma = 0.5 draws T past the doubles in nearly every
    # sample of 10; sample raised numpy's overflow warning out of the study
    cfg = MCConfig(make_generator("logt", nu=0.1), THETA, (10,), (0.0,), 20, 7)
    (cell,) = run_study(cfg).cells
    assert cell.failed > 0 and cell.used + cell.failed == 20
    assert cell.alarm


def test_first_special_function_use_on_worker_threads():
    # scipy.special is imported by the first call that needs it; in a fresh
    # interpreter that is a loglaplace fit on run_study's worker threads,
    # which must give the same report as one thread. A short switch interval
    # interleaves the threads inside that import.
    src = str(Path(blslab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    script = (
        "import json, sys\n"
        "sys.setswitchinterval(1e-5)\n"
        "from blslab import BLSParams, GeneratorId, MCConfig, make_generator, run_study\n"
        "cfg = MCConfig(make_generator(GeneratorId.LAPLACE),\n"
        "               BLSParams(1.0, 1.0, 0.5, 0.5, 0.0), (20,), (0.5,), 4, master_seed=3)\n"
        "loaded = 'scipy.special' in sys.modules\n"
        "threads = run_study(cfg, workers=2).to_tsv()\n"
        "print(json.dumps([loaded, threads, run_study(cfg, workers=1).to_tsv()]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    loaded, threads, serial = json.loads(proc.stdout)
    assert not loaded
    assert threads == serial


def test_rerun_is_bit_identical(small_report):
    cfg = MCConfig(LN, THETA, (25, 50), (0.0, 0.5), 30, 2024)
    assert run_study(cfg) == small_report


def test_different_master_seed_changes_numbers(small_report):
    cfg = MCConfig(LN, THETA, (25, 50), (0.0, 0.5), 30, 2025)
    other = run_study(cfg)
    assert other != small_report


def test_cell_truth_uses_grid_rho():
    # true_theta carries rho=0 but the cell is run at rho=0.9; bias must be
    # measured against 0.9, so it stays small rather than ~0.9.
    cfg = MCConfig(LN, THETA, (100,), (0.9,), 20, 77)
    rep = run_study(cfg)
    assert abs(rep.cells[0].bias[4]) < 0.1


def test_lognormal_mse_shrinks_with_n():
    cfg = MCConfig(LN, BLSParams(1.0, 1.0, 0.5, 0.5, 0.5), (25, 150), (0.5,), 80, 99)
    rep = run_study(cfg, workers=4)
    small, large = rep.cells
    assert small.n == 25 and large.n == 150
    for j in range(5):
        assert large.mse[j] < small.mse[j]


def test_mse_at_least_squared_bias_in_study(small_report):
    for c in small_report.cells:
        for b, m in zip(c.bias, c.mse):
            assert m >= b * b - 1e-12


# ---------------------------------------------------------------- failures

def test_failed_fits_are_excluded_and_counted(monkeypatch):
    calls = {"k": 0}
    real = mc._one_replication

    def flaky(spec, theta, n, seed):
        calls["k"] += 1
        if calls["k"] % 5 == 0:
            return None
        return real(spec, theta, n, seed)

    monkeypatch.setattr(mc, "_one_replication", flaky)
    cfg = MCConfig(LN, THETA, (25,), (0.0,), 20, 11)
    rep = run_study(cfg)
    cell = rep.cells[0]
    assert cell.failed == 4
    assert cell.used == 16
    assert cell.alarm  # 20% > 2%
    assert all(math.isfinite(b) for b in cell.bias)


def test_all_failed_cell_is_nan(monkeypatch):
    monkeypatch.setattr(mc, "_one_replication", lambda *a: None)
    cfg = MCConfig(LN, THETA, (25,), (0.0,), 10, 11)
    cell = run_study(cfg).cells[0]
    assert cell.failed == 10 and cell.used == 0 and cell.alarm
    assert all(math.isnan(b) for b in cell.bias)
    assert all(math.isnan(m) for m in cell.mse)


# ---------------------------------------------------------------- output

def test_tsv_layout(small_report):
    lines = small_report.to_tsv().strip().split("\n")
    header = lines[0].split("\t")
    assert header == [
        "n", "rho",
        "bias_eta1", "mse_eta1", "bias_eta2", "mse_eta2",
        "bias_sigma1", "mse_sigma1", "bias_sigma2", "mse_sigma2",
        "bias_rho", "mse_rho", "failed",
    ]
    assert len(lines) == 1 + 4
    first = lines[1].split("\t")
    assert int(first[0]) == 25
    assert float(first[1]) == 0.0
    assert int(first[-1]) == 0
    for tok in first[2:-1]:
        float(tok)


def test_json_round_trip(small_report):
    doc = json.loads(small_report.to_json())
    assert doc["replications"] == 30
    assert doc["master_seed"] == 2024
    assert len(doc["cells"]) == 4
    c0 = doc["cells"][0]
    assert c0["n"] == 25
    assert len(c0["bias"]) == 5 and len(c0["mse"]) == 5
    assert c0["bias"] == list(small_report.cells[0].bias)
