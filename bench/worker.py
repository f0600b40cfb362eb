"""The three blslab benchmark workloads, run in a fresh process by run.py.

    python3 bench/worker.py --workload W --seed N --seconds S --trace 0|1 --spawn-ts T
    python3 bench/worker.py --workload W --setup-only --spawn-ts T

``--spawn-ts`` is the parent's ``time.perf_counter()`` just before it started
this process (a system-wide monotonic clock on Linux), so ``ready_s`` covers
interpreter start, imports and the per-spec set-up.  The last line of stdout
is one JSON object for run.py.

Every workload is a closed loop of rounds: one process issues the next
operation when the previous one has returned, and starts a new round while
less than ``--seconds`` have passed (at least one round).  A traced run does a
fixed amount of work twice, untraced and then traced, and reports the
per-layer split of the traced pass and the overhead between the two.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

t_import = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

WORKLOADS = ("mc-study", "cli-session", "dist-queries")

END_TO_END = ("setup_s", "round_s", "peak_rss_mb")

# The per-layer metrics of a traced run: (name, unit, better).  Layers that a
# workload does not run report 0.
PER_LAYER = (
    ("specfun.calls", "count", "lower"),
    ("specfun.elems", "count", "lower"),
    ("specfun.self_s", "s", "lower"),
    ("specfun.lower_incomplete_gamma.self_s", "s", "lower"),
    ("specfun.bessel.self_s", "s", "lower"),
    ("generators.calls", "count", "lower"),
    ("generators.scalar_calls", "count", "lower"),
    ("generators.elems", "count", "lower"),
    ("generators.self_s", "s", "lower"),
    *(
        (f"distribution.{op}.{m}", unit, "lower")
        for op in ("joint_cdf", "mahalanobis_quantile", "mahalanobis_cdf",
                   "marginal_cdf_z", "conditional_interval", "joint_pdf")
        for m, unit in (("calls", "count"), ("self_s", "s"))
    ),
    ("distribution.quad_calls", "count", "lower"),
    ("distribution.quad.self_s", "s", "lower"),
    ("distribution.brentq_calls", "count", "lower"),
    ("distribution.sample.calls", "count", "lower"),
    ("distribution.sample.self_s", "s", "lower"),
    ("distribution.sample.draws", "count", "higher"),
    ("estimation.fit_mle.calls", "count", "lower"),
    ("estimation.fit_mle.self_s", "s", "lower"),
    ("estimation.fit_mle.iterations", "count", "lower"),
    ("estimation.fit_mle.converged_frac", "fraction", "higher"),
    ("estimation.objective_evals", "count", "lower"),
    ("estimation.standard_errors.calls", "count", "lower"),
    ("estimation.standard_errors.self_s", "s", "lower"),
    ("estimation.profile_fit.calls", "count", "lower"),
    ("estimation.profile_fit.self_s", "s", "lower"),
    ("estimation.profile_fit.grid_points", "count", "lower"),
    ("montecarlo.run_study.self_s", "s", "lower"),
    ("montecarlo.reps", "count", "higher"),
    ("montecarlo.reps_failed", "count", "lower"),
    ("datakit.compare_models.self_s", "s", "lower"),
    ("datakit.compare_models.families_failed", "count", "lower"),
    ("datakit.qq_mahalanobis.self_s", "s", "lower"),
    ("datakit.load_csv.self_s", "s", "lower"),
    ("cli.startup_s", "s", "lower"),
    ("cli.summary_s", "s", "lower"),
    ("cli.fit_s", "s", "lower"),
    ("cli.eval_s", "s", "lower"),
    ("cli.dispatch.self_s", "s", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
)

# span names the per-layer metrics read, where they differ from the metric
_SPAN_OF = {
    "distribution.conditional_interval": "distribution.conditional_pdf_t1_given_t2_in_interval",
}


def _sum(d: dict, prefix: str) -> float:
    return float(sum(v for k, v in d.items() if k.startswith(prefix)))


def layer_metrics(snap: dict, extra: dict) -> dict:
    """Every PER_LAYER metric, with its unit, from merged span totals plus ``extra``."""
    calls, own, counts = snap.get("calls", {}), snap.get("self_s", {}), snap.get("counts", {})
    out = {}
    for name, _unit, _better in PER_LAYER:
        if name in extra:
            out[name] = extra[name]
        elif name in counts:
            out[name] = counts[name]
        elif name in ("specfun.calls", "generators.calls"):
            out[name] = _sum(calls, name.split(".")[0] + ".")
        elif name in ("specfun.self_s", "generators.self_s"):
            out[name] = _sum(own, name.split(".")[0] + ".")
        elif name == "specfun.bessel.self_s":
            out[name] = _sum(own, "specfun.bessel_")
        elif name == "estimation.fit_mle.converged_frac":
            n = calls.get("estimation.fit_mle", 0)
            out[name] = counts.get("estimation.fit_mle.converged", 0) / n if n else 0.0
        elif name == "distribution.quad_calls":
            out[name] = calls.get("distribution.quad", 0)
        elif name == "distribution.brentq_calls":
            out[name] = calls.get("distribution.brentq", 0)
        elif name.endswith(".calls") or name.endswith(".self_s"):
            base, _, kind = name.rpartition(".")
            base = _SPAN_OF.get(base, base)
            out[name] = (calls if kind == "calls" else own).get(base, 0)
        else:
            out[name] = 0
    return {name: {"value": float(out[name]), "unit": unit} for name, unit, _ in PER_LAYER}


class Tally:
    """Attempted and failed operations, failures named by class."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, int] = {}

    def fail(self, what: str, n: int = 1) -> None:
        self.failed += n
        self.failures[what] = self.failures.get(what, 0) + n


class Checks:
    def __init__(self):
        self.failed: list[str] = []
        self.passed = 0

    def expect(self, ok: bool, what: str) -> None:
        if ok:
            self.passed += 1
        else:
            self.failed.append(what)


def digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            p = np.ascontiguousarray(p, dtype=float).tobytes()
        elif not isinstance(p, bytes):
            p = repr(p).encode()
        h.update(len(p).to_bytes(8, "little"))
        h.update(p)
    return h.hexdigest()


# ------------------------------------------------------------------ set-up

def _specs(workload):
    from blslab import GeneratorId as G, make_generator

    if workload == "mc-study":
        return {"logslash": make_generator(G.SLASH, nu=4.0),
                "loglaplace": make_generator(G.LAPLACE)}
    return {"logt": make_generator(G.STUDENT_T, nu=4.0),
            "logpexp": make_generator(G.POWER_EXP, xi=0.5),
            "loglaplace": make_generator(G.LAPLACE),
            "logslash": make_generator(G.SLASH, nu=4.0)}


def setup(workload):
    """Import plus one draw per spec, which fills every per-spec cache."""
    import blslab

    specs = _specs(workload)
    theta = blslab.BLSParams(1.0, 1.0, 0.5, 0.5, 0.5)
    for spec in specs.values():
        blslab.sample(theta, spec, 1, seed=0)
    return specs


# ---------------------------------------------------------------- mc-study

MC_REPS = 10          # replications per study per round
MC_TRACE_ROUNDS = 3   # rounds of a traced run's fixed work


def mc_round(k, seed, specs, tally, per_study):
    """Round k: one replication batch per study."""
    from blslab import BLSParams, MCConfig, run_study

    theta = BLSParams(1.0, 1.0, 0.5, 0.5, 0.5)
    reports = []
    for j, (label, spec) in enumerate(specs.items()):
        cfg = MCConfig(spec, theta, (100,), (0.5,), MC_REPS, master_seed=seed * 100_003 + 2 * k + j)
        tally.attempted += MC_REPS
        t0 = time.perf_counter()
        try:
            report = run_study(cfg, workers=2)
        except Exception as e:  # a study that raises loses all its replications
            tally.fail(f"{label}: {type(e).__name__}", MC_REPS)
            reports.append(None)
            continue
        finally:
            per_study[label].append(time.perf_counter() - t0)
        for cell in report.cells:
            if cell.failed:
                tally.fail(f"{label}: replication not converged or BlsError", cell.failed)
        reports.append(report)
    return reports


def mc_check(reports, checks):
    for rep in reports:
        if rep is None:
            continue
        (cell,) = rep.cells
        checks.expect(cell.used + cell.failed == MC_REPS, "study counts add up")
        if cell.used:
            b, m = np.array(cell.bias), np.array(cell.mse)
            checks.expect(bool(np.all(np.isfinite(b)) and np.all(np.isfinite(m))),
                          "finite bias and MSE")
            # MSE = variance + bias^2
            checks.expect(bool(np.all(m >= b * b * (1 - 1e-9))), "MSE >= bias^2")


# ------------------------------------------------------------ dist-queries

DQ_THETA = (1.0, 2.0, 0.5, 0.3, 0.4)
DQ_SCALAR_PDF = 1000  # scalar joint_pdf calls per family per round
DQ_BULK = 100_000     # vector joint_pdf elements and sample() draws
# One joint_cdf, interval conditional or radial quantile costs 0.01-12 s, and
# the cost jumps with the point, because the adaptive quadrature subdivides
# differently. Points drawn from the seed made one round's four joint_cdf
# calls cost 16-22 s. So these queries use fixed points, given on the
# standardized log scale: t_i = eta_i * exp(sigma_i * z_i).
DQ_CDF_Z = ((0.5, 0.25), (-0.5, -0.1), (1.0, 0.8), (0.0, -0.7))  # one per round, cycling
DQ_COND_Z = (0.25, (-0.5, 0.85))  # t1, and the interval for T2
DQ_QUANTILE_P = (0.05, 0.5, 0.95)


def dq_inputs(seed, specs):
    """Seeded inputs: scalar joint_pdf points drawn from each family's own
    law, and the seeds of the bulk draws."""
    from blslab import BLSParams, sample

    theta = BLSParams(*DQ_THETA)
    out = {}
    for i, (label, spec) in enumerate(specs.items()):
        rng = np.random.default_rng([seed, i])
        pts = sample(theta, spec, DQ_SCALAR_PDF, seed=int(rng.integers(2**32)))
        out[label] = {"pts": pts, "rng": rng}
    return out


def _t(theta, z, i):
    eta, sigma = (theta.eta1, theta.sigma1) if i == 1 else (theta.eta2, theta.sigma2)
    return eta * math.exp(sigma * z)


def dq_round(k, specs, inputs, tally, kinds):
    import blslab as B

    theta = B.BLSParams(*DQ_THETA)
    res = {}

    def timed(kind, n, fn, *args):
        tally.attempted += 1
        t0 = time.perf_counter()
        try:
            return fn(*args)
        except Exception as e:
            tally.fail(f"{kind}: {type(e).__name__}")
            return None
        finally:
            kinds[kind][0] += n
            kinds[kind][1] += time.perf_counter() - t0

    for label, spec in specs.items():
        pts, rng = inputs[label]["pts"], inputs[label]["rng"]
        r = res[label] = {}
        r["pdf"] = np.array([
            v if (v := timed("pdf", 1, B.joint_pdf, theta, spec, float(a), float(b))) is not None
            else np.nan
            for a, b in pts
        ])
        r["draws"] = timed("draws", DQ_BULK, B.sample, theta, spec, DQ_BULK,
                           int(rng.integers(2**32)))
        if r["draws"] is not None:
            r["bulk"] = timed("pdf_bulk", DQ_BULK, B.joint_pdf, theta, spec,
                              r["draws"][:, 0], r["draws"][:, 1])
        r["q"] = [timed("quantile", 1, B.mahalanobis_quantile, spec, p) for p in DQ_QUANTILE_P]
        z1, (lo, hi) = DQ_COND_Z
        r["cond"] = timed("cond", 1, B.conditional_pdf_t1_given_t2_in_interval, theta, spec,
                          _t(theta, z1, 1), (_t(theta, lo, 2), _t(theta, hi, 2)))
        z1, z2 = DQ_CDF_Z[k % len(DQ_CDF_Z)]
        r["cdf_pt"] = (_t(theta, z1, 1), _t(theta, z2, 2))
        r["cdf"] = timed("cdf", 1, B.joint_cdf, theta, spec, *r["cdf_pt"])
    return res


def dq_check(res, specs, checks):
    """Correctness of one round's outputs, against independent references
    where they exist."""
    import blslab as B
    from scipy import stats

    theta = B.BLSParams(*DQ_THETA)
    for label, r in res.items():
        spec = specs[label]
        pdf = r["pdf"]
        checks.expect(bool(np.all(np.isfinite(pdf) & (pdf > 0))), f"{label}: scalar pdf > 0")
        d = r["draws"]
        if d is not None:
            checks.expect(d.shape == (DQ_BULK, 2) and bool(np.all(np.isfinite(d) & (d > 0))),
                          f"{label}: finite positive draws")
        bulk = r.get("bulk")
        if bulk is not None:
            ref = [B.joint_pdf(theta, spec, float(a), float(b)) for a, b in d[:3]]
            checks.expect(bool(np.all(np.isfinite(bulk) & (bulk >= 0)))
                          and np.allclose(bulk[:3], ref, rtol=1e-12, atol=0),
                          f"{label}: vector pdf matches scalar pdf")
        for p, q in zip(DQ_QUANTILE_P, r["q"]):
            if q is None:
                continue
            err = abs(B.mahalanobis_cdf(spec, q) - p)
            checks.expect(err <= 1e-9, f"{label}: |F(Q(p)) - p| = {err:.2e} at p={p:.4f}")
            if label == "logt":  # closed form: X / 2 ~ F(2, nu)
                nu = spec.params.nu
                checks.expect(abs(B.mahalanobis_cdf(spec, q) - stats.f.cdf(q / 2, 2, nu)) <= 1e-12
                              and math.isclose(q, 2 * stats.f.ppf(p, 2, nu), rel_tol=1e-9),
                              "logt radial law equals 2 F(2, nu)")
        if r["cond"] is not None:
            checks.expect(math.isfinite(r["cond"]) and r["cond"] >= 0, f"{label}: conditional pdf")
        if r["cdf"] is not None:
            checks.expect(0.0 <= r["cdf"] <= 1.0, f"{label}: joint cdf in [0, 1]")
    # lognormal joint_cdf against the bivariate normal on the log scale
    ln = B.make_generator(B.GeneratorId.LOGNORMAL)
    rho = theta.rho
    mvn = stats.multivariate_normal(mean=[0.0, 0.0], cov=[[1.0, rho], [rho, 1.0]],
                                    maxpts=10**7, abseps=1e-12, releps=1e-12)
    for t1, t2 in ((1.2, 2.1), (0.8, 2.6)):
        z = [(math.log(t1) - math.log(theta.eta1)) / theta.sigma1,
             (math.log(t2) - math.log(theta.eta2)) / theta.sigma2]
        ref = mvn.cdf(z)
        got = B.joint_cdf(theta, ln, t1, t2)
        checks.expect(abs(got - ref) <= 1e-6,
                      f"lognormal joint_cdf {got:.9f} vs bivariate normal {ref:.9f}")


def dq_digest(res):
    parts = []
    for label, r in res.items():
        parts += [label, r["pdf"], r["draws"] if r["draws"] is not None else "x",
                  r.get("bulk", "x"), r["q"], r["cond"], r["cdf_pt"], r["cdf"]]
    return digest(*parts)


# ------------------------------------------------------------- cli-session

CLI_THETA = "1,2,0.5,0.3,0.4"
CLI_N = 50
LAUNCHER = HERE / "cli_launcher.py"


def cli_commands(pdf_at):
    return [
        ("summary", ["summary", "--data", "data.csv", "--out", "summary.tsv"]),
        ("fit", ["fit", "--data", "data.csv", "--model", "logslash", "--out", "fit.json"]),
        ("compare", ["compare", "--data", "data.csv", "--out", "compare.json"]),
        ("diagnose", ["diagnose", "--data", "data.csv", "--model", "logslash", "--nu", "4",
                      "--out", "qq.tsv"]),
        ("eval", ["eval", "--model", "logslash", "--nu", "4", "--theta", CLI_THETA,
                  "--pdf", f"{float(pdf_at[0])!r},{float(pdf_at[1])!r}", "--quantile", "0.9",
                  "--out", "eval.txt"]),
    ]


def cli_env():
    env = dict(os.environ)
    env.pop("BLSLAB_THREADS", None)
    return env


def run_cli(args, cwd, deadline, trace_out=None):
    """One cold blslab process; returns (exit code, wall s, stderr tail, spawn ts)."""
    cmd = [sys.executable, str(LAUNCHER)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    cmd += ["--", *args]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=cwd, env=cli_env(), stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True) as proc:
        try:
            _, err = proc.communicate(timeout=max(1.0, deadline - t0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return None, time.perf_counter() - t0, "timeout", t0
    return proc.returncode, time.perf_counter() - t0, (err or "")[-300:], t0


def cli_session(work, pdf_at, tally, deadline, trace_dir=None):
    times, spawn = {}, {}
    for name, args in cli_commands(pdf_at):
        tally.attempted += 1
        out = None if trace_dir is None else trace_dir / f"{name}.json"
        code, wall, err, t0 = run_cli(args, work, deadline, out)
        times[name], spawn[name] = wall, t0
        if code != 0:
            tail = err.strip().splitlines()[-1] if err.strip() else ""
            tally.fail(f"{name}: exit {code}: {tail}")
    tally.attempted += 8  # compare's families
    cmp_path = work / "compare.json"
    if cmp_path.exists():
        failures = json.loads(cmp_path.read_text())["failures"]
        for fam, msg in failures:
            tally.fail(f"compare {fam}: {msg.split(':')[0]}")
    return times, spawn


def cli_outputs(work):
    """Output files and manifests, without the manifests' wall-clock field."""
    parts = []
    for f in sorted(work.iterdir()):
        if f.name == "data.csv":
            continue
        text = f.read_text()
        if f.name.endswith(".manifest.json"):
            doc = json.loads(text)
            doc.pop("duration_s", None)
            text = json.dumps(doc, sort_keys=True)
        parts += [f.name, text]
    return parts


def cli_check(work, pairs, checks):
    import blslab as B

    spec = B.make_generator(B.GeneratorId.SLASH, nu=4.0)
    theta = B.BLSParams(*map(float, CLI_THETA.split(",")))
    for name in ("summary.tsv", "fit.json", "compare.json", "qq.tsv", "eval.txt"):
        checks.expect((work / name).exists() and (work / f"{name}.manifest.json").exists(),
                      f"{name} and its manifest written")
    try:
        rows = [ln.split("\t") for ln in (work / "summary.tsv").read_text().splitlines()[1:]]
        means = [float(r[4]) for r in rows]
        checks.expect(np.allclose(means, pairs.mean(axis=0), rtol=1e-5), "summary means")
        fit = json.loads((work / "fit.json").read_text())
        checks.expect(fit["converged"] and fit["n_obs"] == CLI_N, "fit converged")
        cmp = json.loads((work / "compare.json").read_text())
        aics = [r["fit"]["aic"] for r in cmp["rows"]]
        checks.expect(aics == sorted(aics) and all(
            math.isclose(r["fit"]["aic"], -2 * r["fit"]["log_lik"] + 10, rel_tol=1e-12)
            for r in cmp["rows"]), "compare ranks by AIC = -2 loglik + 10")
        qq = np.array([ln.split("\t") for ln in (work / "qq.tsv").read_text().splitlines()[1:]],
                      dtype=float)
        checks.expect(qq.shape == (CLI_N, 2) and bool(np.all(np.diff(qq[:, 1]) >= 0)), "qq rows")
        for i, q in enumerate(qq[:, 0]):
            p = (i + 0.5) / CLI_N
            err = abs(B.mahalanobis_cdf(spec, q) - p)
            checks.expect(err <= 1e-9, f"diagnose |F(Q(p)) - p| = {err:.2e} at p={p}")
        pdf, q90 = (float(v) for v in (work / "eval.txt").read_text().split())
        ref = B.joint_pdf(theta, spec, float(pairs[0, 0]), float(pairs[0, 1]))
        checks.expect(math.isclose(pdf, ref, rel_tol=1e-10), "eval pdf")
        checks.expect(abs(B.mahalanobis_cdf(spec, q90) - 0.9) <= 1e-9, "eval quantile")
    except (OSError, ValueError, KeyError, IndexError) as e:
        checks.expect(False, f"cli outputs unreadable: {type(e).__name__}: {e}")


# --------------------------------------------------------------- workloads

def run_mc(args, specs, tally, checks):
    # each round draws fresh replications
    per_study = {label: [] for label in specs}
    round_times, first = [], None
    while True:
        t0 = time.perf_counter()
        reports = mc_round(len(round_times), args.seed, specs, tally, per_study)
        round_times.append(time.perf_counter() - t0)
        mc_check(reports, checks)
        first = first or reports
        if (len(round_times) == MC_TRACE_ROUNDS if args.trace
                else sum(round_times) >= args.seconds):
            break
    report = {f"reps_per_s.{k}": MC_REPS / statistics.median(v) for k, v in per_study.items()}
    report["reps_per_s"] = len(specs) * MC_REPS / statistics.median(round_times)

    def replay():
        for k in range(len(round_times)):
            mc_round(k, args.seed, specs, Tally(), {x: [] for x in specs})

    dig = digest(*[r.to_tsv() if r is not None else "failed" for r in first])
    return round_times, report, dig, replay


def run_dq(args, specs, tally, checks):
    inputs = dq_inputs(args.seed, specs)
    saved = copy.deepcopy(inputs)
    kinds = {k: [0, 0.0] for k in ("cdf", "quantile", "cond", "pdf", "pdf_bulk", "draws")}
    first, round_times = None, []
    while not round_times or (not args.trace and sum(round_times) < args.seconds):
        t0 = time.perf_counter()
        res = dq_round(len(round_times), specs, inputs, tally, kinds)
        round_times.append(time.perf_counter() - t0)
        first = first or res
    dq_check(first, specs, checks)
    report = {f"{k}_per_s": v[0] / v[1] for k, v in kinds.items() if v[1] > 0}

    def replay():
        dq_round(0, specs, saved, Tally(), {k: [0, 0.0] for k in kinds})

    return round_times, report, dq_digest(first), replay


def run_cli_session(args, tally, checks, deadline, trace_dir=None):
    """Sessions in fresh directories; with ``trace_dir``, one more, traced."""
    import blslab as B

    base = ROOT / ".bench_out" / f"cli-{args.seed}-{os.getpid()}"
    spec = B.make_generator(B.GeneratorId.SLASH, nu=4.0)
    theta = B.BLSParams(*map(float, CLI_THETA.split(",")))
    pairs = B.sample(theta, spec, CLI_N, seed=args.seed)

    def session(name, tally, trace_dir=None):
        work = base / name
        work.mkdir(parents=True)
        B.save_csv(B.Dataset(pairs), work / "data.csv")
        t0 = time.perf_counter()
        times, spawn = cli_session(work, pairs[0], tally, deadline, trace_dir)
        return work, time.perf_counter() - t0, times, spawn

    round_times, per_cmd, first = [], {}, None
    traced = None
    try:
        while not round_times or (not args.trace and sum(round_times) < args.seconds):
            work, wall, times, _ = session(f"s{len(round_times)}", tally)
            round_times.append(wall)
            for k, v in times.items():
                per_cmd.setdefault(k, []).append(v)
            parts = cli_outputs(work)
            if first is None:
                first = parts
                cli_check(work, pairs, checks)
            checks.expect(parts == first, "a repeated session gives identical outputs")
        if trace_dir is not None:
            tally_t = Tally()
            traced = (tally_t, *session("traced", tally_t, trace_dir)[1:])
    finally:
        shutil.rmtree(base, ignore_errors=True)
    report = {"session_s": statistics.median(round_times),
              "compare_s": statistics.median(per_cmd["compare"]),
              "diagnose_s": statistics.median(per_cmd["diagnose"])}
    return round_times, report, digest(*first), traced


# -------------------------------------------------------------------- main

def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawn-ts", type=float, default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    spawn_ts = t_import if args.spawn_ts is None else args.spawn_ts
    deadline = spawn_ts + 170.0

    specs = setup(args.workload) if args.workload != "cli-session" else None
    ready_s = time.perf_counter() - spawn_ts
    if args.setup_only:
        print(json.dumps({"ready_s": ready_s}))
        return 0

    import scipy

    import spans

    tally, checks = Tally(), Checks()
    result = {"ready_s": ready_s, "numpy": np.__version__, "scipy": scipy.__version__}
    if args.trace:
        import selftest

        checks.expect(selftest.run(), "span arithmetic self-test")

    snap, extra = {}, {}
    if args.workload == "cli-session":
        trace_dir = None
        if args.trace:
            trace_dir = ROOT / ".bench_out" / f"trace-{args.seed}-{os.getpid()}"
            trace_dir.mkdir(parents=True, exist_ok=True)
        try:
            round_times, report, dig, traced = run_cli_session(
                args, tally, checks, deadline, trace_dir)
            if traced is not None:
                tally_t, wall, times, spawn = traced
                checks.expect(tally_t.failed == 0, "the traced session succeeds")
                startup = 0.0
                for name in times:
                    doc = json.loads((trace_dir / f"{name}.json").read_text())
                    spans.merge(snap, doc)
                    startup += doc["ready_ts"] - spawn[name]
                extra = {"cli.startup_s": startup, "cli.summary_s": times["summary"],
                         "cli.fit_s": times["fit"], "cli.eval_s": times["eval"],
                         "trace.overhead_frac": wall / round_times[0] - 1.0}
        finally:
            if trace_dir is not None:
                shutil.rmtree(trace_dir, ignore_errors=True)
    else:
        run = run_mc if args.workload == "mc-study" else run_dq
        round_times, report, dig, replay = run(args, specs, tally, checks)
        if args.trace:
            tracer = spans.Tracer()
            t0 = time.perf_counter()
            with spans.Patch(tracer):
                replay()
            snap = spans.snapshot(tracer)
            extra = {"trace.overhead_frac": (time.perf_counter() - t0) / sum(round_times) - 1.0}

    result.update({
        "round_s": statistics.median(round_times), "round_times": round_times,
        "report": report, "digest": dig,
        "attempted": tally.attempted, "failed": tally.failed, "failures": tally.failures,
        "checks_passed": checks.passed, "checks_failed": checks.failed,
    })
    if args.trace:
        result["per_layer"] = layer_metrics(snap, extra)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
