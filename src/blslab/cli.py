"""Command-line front end wiring the library into reproducible runs.

Subcommands: eval, sample, fit, simulate, diagnose, summary, compare.
Exit codes: 0 success, 1 usage error, 2 numerical/runtime failure.

Every file-writing run drops a manifest (<out>.manifest.json) next to its
output recording the subcommand, the argv, the resolved flags, the seed, the
library version, and the wall-clock duration; replaying the recorded argv
reproduces the output bit-identically for the deterministic subcommands.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .datakit import (
    Dataset,
    compare_models,
    default_grid,
    load_csv,
    qq_mahalanobis,
    save_csv,
    summarize,
)
from .distribution import (
    BLSParams,
    joint_cdf,
    joint_log_pdf,
    joint_pdf,
    mahalanobis_quantile,
    sample,
)
from .errors import BlsError, RootFindingError
from .estimation import profile_fit
from .generators import FAMILY_NAMES, GeneratorParams, GeneratorSpec
from .montecarlo import MCConfig, run_study

__all__ = ["RunManifest", "dispatch", "main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the contract reserves 2 for
    # numerical failures, so usage problems are rethrown and mapped to 1
    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}")


# ------------------------------------------------------------ flag parsing

def _family_arg(text: str):
    name = text.strip().lower()
    if name not in FAMILY_NAMES:
        raise argparse.ArgumentTypeError(
            f"unknown model {text!r}; choose from {', '.join(sorted(FAMILY_NAMES))}"
        )
    return FAMILY_NAMES[name]


def _families_arg(text: str):
    families = tuple(_family_arg(f) for f in text.split(","))
    if len(set(families)) != len(families):
        raise argparse.ArgumentTypeError(f"repeated family in {text!r}")
    return families


def _list_arg(convert, count=None, build=tuple):
    """A comma-list flag type: `convert` on each item (`count` of them, if
    given), then `build` on the values."""
    def parse(text: str):
        parts = text.split(",")
        if count is not None and len(parts) != count:
            raise argparse.ArgumentTypeError(f"expected {count} comma-separated values, got {text!r}")
        try:
            return build(convert(p) for p in parts)
        except (ValueError, BlsError) as e:
            raise argparse.ArgumentTypeError(f"bad value {text!r}: {e}") from None
    return parse


_theta_arg = _list_arg(float, 5, lambda v: BLSParams(*v))
_pair_arg = _list_arg(float, 2)


_GRID_MAX = 10_000  # points a --*-grid may have; default_grid's largest has 151


def _grid_arg(text: str) -> tuple[float, ...]:
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise argparse.ArgumentTypeError(f"grid must be lo:hi[:step], got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        step = float(parts[2]) if len(parts) == 3 else 1.0
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid must be numeric lo:hi[:step], got {text!r}") from None
    if step <= 0.0 or hi < lo:
        raise argparse.ArgumentTypeError(f"grid needs hi >= lo and step > 0, got {text!r}")
    span = (hi - lo) / step  # counted before the grid is built; an infinite span fails here
    if not span < _GRID_MAX:
        raise argparse.ArgumentTypeError(f"grid {text!r} has more than {_GRID_MAX} points")
    count = int(math.floor(span + 1e-9)) + 1
    return tuple(round(lo + i * step, 10) for i in range(count))


def _int_arg(lo: int):
    """An integer flag type with values >= lo."""
    def parse(text: str) -> int:
        try:
            v = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if v < lo:
            raise argparse.ArgumentTypeError(f"expected an integer >= {lo}, got {text!r}")
        return v
    return parse


# --------------------------------------------------------------- manifest

@dataclass(frozen=True)
class RunManifest:
    """Reproducibility record accompanying every output file."""

    subcommand: str
    argv: tuple[str, ...]
    flags: dict
    seed: int | None
    version: str
    duration_s: float

    def to_dict(self) -> dict:
        return {**dataclasses.asdict(self), "argv": list(self.argv)}

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_dict(), **kw)


def _jsonable(v):
    if isinstance(v, BLSParams):
        return [v.eta1, v.eta2, v.sigma1, v.sigma2, v.rho]
    if isinstance(v, (list, tuple)):
        return [_jsonable(u) for u in v]
    if hasattr(v, "value"):  # enums
        return v.value
    return v


def _manifest(ns, argv, t0: float) -> RunManifest:
    flags = {
        k: _jsonable(v)
        for k, v in sorted(vars(ns).items())
        if k != "func" and not k.startswith("_")
    }
    return RunManifest(
        subcommand=ns.subcommand,
        argv=tuple(argv),
        flags=flags,
        seed=getattr(ns, "seed", None),
        version=__version__,
        duration_s=round(time.monotonic() - t0, 6),
    )


def _write_manifest(out, ns, argv, t0) -> None:
    Path(str(out) + ".manifest.json").write_text(
        _manifest(ns, argv, t0).to_json(indent=2) + "\n", encoding="utf-8"
    )


def _emit(text: str, out, ns, argv, t0) -> None:
    """Print to stdout, or write the file plus its manifest."""
    if out is None:
        sys.stdout.write(text)
        return
    Path(out).write_text(text, encoding="utf-8")
    _write_manifest(out, ns, argv, t0)


# ------------------------------------------------------------ subcommands

def _make_spec(ns, params=None):
    # params default to the fixed extra-parameter flags
    try:
        return GeneratorSpec(ns.model, params or GeneratorParams(ns.nu, ns.xi, ns.theta_gen))
    except BlsError as e:
        # wrong/missing extra parameters are flag mistakes, not numerics
        raise _UsageError(f"{ns.subcommand}: {e}") from None


def _fit_data(ns):
    """Load --data and profile over the product of the (nu, xi, theta) axes: a
    --*-grid flag gives an axis's values, a fixed flag or none is one point, and
    the family's default grid applies only when no extra-parameter flag is given."""
    axes = [getattr(ns, f"{a}_grid") or (getattr(ns, a),) for a in ("nu", "xi", "theta_gen")]
    grid = [GeneratorParams(*p) for p in itertools.product(*axes)]
    if grid == [GeneratorParams()]:
        grid = default_grid(ns.model) or grid
    grid = [_make_spec(ns, p).params for p in grid]  # every point checked before any fit
    ds = load_csv(ns.data)
    fit = profile_fit(ds.pairs, ns.model, grid)[1]
    if not fit.converged:
        raise RootFindingError(f"fit did not converge (scaled gradient norm {fit.grad_norm:.3g})")
    return ds, fit


def _fmt(v: float) -> str:
    return f"{v:.12g}"


_EVAL = {  # request flag -> value at its argument
    "pdf": lambda theta, spec, t: joint_pdf(theta, spec, *t),
    "logpdf": lambda theta, spec, t: joint_log_pdf(theta, spec, *t),
    "cdf": lambda theta, spec, t: joint_cdf(theta, spec, *t),
    "quantile": lambda theta, spec, p: mahalanobis_quantile(spec, p),
}


def _cmd_eval(ns, argv, t0):
    spec = _make_spec(ns)
    requests = [(f, item) for kind, f in _EVAL.items() for item in getattr(ns, kind) or ()]
    if not requests:
        raise _UsageError(
            "eval: needs at least one of --pdf/--logpdf/--cdf/--quantile"
        )
    lines = [_fmt(float(f(ns.theta, spec, item))) for f, item in requests]
    _emit("\n".join(lines) + "\n", ns.out, ns, argv, t0)


def _cmd_sample(ns, argv, t0):
    spec = _make_spec(ns)
    pairs = sample(ns.theta, spec, ns.n, ns.seed)
    ds = Dataset(pairs, source=f"blslab sample --seed {ns.seed}")
    save_csv(ds, ns.out)
    _write_manifest(ns.out, ns, argv, t0)


def _cmd_fit(ns, argv, t0):
    fit = _fit_data(ns)[1]
    _emit(fit.to_json(indent=2) + "\n", ns.out, ns, argv, t0)


def _cmd_simulate(ns, argv, t0):
    spec = _make_spec(ns)
    try:
        config = MCConfig(spec, ns.theta, ns.n, ns.rho, ns.reps, ns.seed)
    except BlsError as e:  # sample sizes and correlations are flags too
        raise _UsageError(f"simulate: {e}") from None
    report = run_study(config)
    _emit(report.to_tsv(), ns.out, ns, argv, t0)


def _cmd_diagnose(ns, argv, t0):
    qq = qq_mahalanobis(*_fit_data(ns))
    _emit(qq.to_tsv(), ns.out, ns, argv, t0)


def _cmd_summary(ns, argv, t0):
    ds = load_csv(ns.data)
    _emit(summarize(ds).to_tsv(), ns.out, ns, argv, t0)


def _cmd_compare(ns, argv, t0):
    ds = load_csv(ns.data)
    cmp = compare_models(ds, families=ns.families)
    as_json = ns.out is not None and str(ns.out).endswith(".json")
    text = cmp.to_json(indent=2) + "\n" if as_json else cmp.to_tsv()
    _emit(text, ns.out, ns, argv, t0)


# ----------------------------------------------------------------- parser

def _add_model_flags(p, require_model=True):
    p.add_argument(
        "--model",
        type=_family_arg,
        required=require_model,
        help="family name: " + ", ".join(sorted(FAMILY_NAMES)),
    )
    p.add_argument("--nu", type=float, help="extra parameter nu (degrees of freedom / shape)")
    p.add_argument("--xi", type=float, help="extra parameter xi (shape)")
    p.add_argument(
        "--theta-gen",
        type=float,
        dest="theta_gen",
        help="extra generator parameter theta (distinct from the --theta vector)",
    )


def _add_grid_flags(p):
    for flag, what in (("nu", "nu"), ("xi", "xi"), ("theta-gen", "the generator theta")):
        p.add_argument(
            f"--{flag}-grid",
            type=_grid_arg,
            help=f"profile grid for {what}, lo:hi[:step]; the fit profiles over the product "
            "of the extra-parameter axes, where a fixed flag is a one-point axis",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="blslab", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"blslab {__version__}")
    sub = parser.add_subparsers(dest="subcommand", parser_class=_Parser)
    sub.required = True

    p = sub.add_parser("eval", help="evaluate pdf/logpdf/cdf/radial quantile")
    _add_model_flags(p)
    p.add_argument("--theta", type=_theta_arg, required=True, help="eta1,eta2,sigma1,sigma2,rho")
    p.add_argument("--pdf", type=_pair_arg, action="append", help="joint density at t1,t2 (repeatable)")
    p.add_argument("--logpdf", type=_pair_arg, action="append", help="joint log-density at t1,t2 (repeatable)")
    p.add_argument("--cdf", type=_pair_arg, action="append", help="joint CDF at t1,t2 (repeatable)")
    p.add_argument(
        "--quantile", type=float, action="append",
        help="squared-Mahalanobis radial quantile at probability p (repeatable)",
    )
    p.add_argument("--out", help="write values here instead of stdout (with manifest)")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sample", help="draw a synthetic sample, write CSV")
    _add_model_flags(p)
    p.add_argument("--theta", type=_theta_arg, required=True, help="eta1,eta2,sigma1,sigma2,rho")
    p.add_argument("--n", type=_int_arg(1), required=True, help="sample size")
    p.add_argument("--seed", type=_int_arg(0), default=0, help="RNG seed (default 0)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("fit", help="maximum-likelihood fit, write FitResult JSON")
    _add_model_flags(p)
    _add_grid_flags(p)
    p.add_argument("--data", required=True, help="two-column positive CSV")
    p.add_argument("--out", help="output JSON path (stdout if omitted)")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("simulate", help="Monte Carlo bias/MSE study, write TSV")
    _add_model_flags(p)
    p.add_argument(
        "--theta",
        type=_theta_arg,
        default=BLSParams(1.0, 1.0, 0.5, 0.5, 0.5),
        help="true eta1,eta2,sigma1,sigma2,rho (rho is overridden per grid cell; "
        "default 1,1,0.5,0.5,0.5)",
    )
    p.add_argument("--n", type=_list_arg(int), required=True, help="sample sizes, comma-separated")
    p.add_argument("--rho", type=_list_arg(float), required=True, help="correlation grid, comma-separated")
    p.add_argument("--reps", type=_int_arg(1), required=True, help="Monte Carlo replications per cell")
    p.add_argument("--seed", type=_int_arg(0), default=0, help="master seed (default 0)")
    p.add_argument("--out", help="output TSV path (stdout if omitted)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("diagnose", help="fit a model and write Mahalanobis QQ TSV")
    _add_model_flags(p)
    _add_grid_flags(p)
    p.add_argument("--data", required=True, help="two-column positive CSV")
    p.add_argument("--out", help="output TSV path (stdout if omitted)")
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("summary", help="print per-column descriptive statistics")
    p.add_argument("--data", required=True, help="two-column positive CSV")
    p.add_argument("--out", help="output TSV path (stdout if omitted)")
    p.set_defaults(func=_cmd_summary)

    p = sub.add_parser("compare", help="fit several families, rank by AIC/BIC")
    p.add_argument("--data", required=True, help="two-column positive CSV")
    p.add_argument(
        "--families",
        type=_families_arg,
        help="comma-separated distinct family names (default: all eight)",
    )
    p.add_argument(
        "--out",
        help="output path; .json extension selects JSON, anything else TSV (stdout TSV if omitted)",
    )
    p.set_defaults(func=_cmd_compare)

    return parser


def dispatch(argv) -> int:
    """Parse argv and run one subcommand; returns the process exit code."""
    parser = build_parser()
    try:
        ns = parser.parse_args(list(argv))
    except _UsageError as e:
        print(str(e), file=sys.stderr)
        return 1
    except SystemExit as e:  # --help / --version
        return int(e.code or 0)
    t0 = time.monotonic()
    try:
        ns.func(ns, argv, t0)
    except _UsageError as e:
        print(str(e), file=sys.stderr)
        return 1
    except BlsError as e:
        print(f"blslab {ns.subcommand}: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"blslab {ns.subcommand}: {e}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
