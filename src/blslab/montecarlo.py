"""Simulation-study harness: generate, fit, and tabulate bias and MSE.

Per-replication seeds are derived by mixing (master_seed, n-index, rho-index,
replication-index) through SeedSequence, so every replication is independent
of scheduling; results are aggregated in fixed index order after collection,
which makes reports bit-identical across worker counts.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .distribution import BLSParams, sample
from .errors import BlsError, DomainError
from .estimation import fit_mle
from .generators import GeneratorSpec

_PARAM_NAMES = ("eta1", "eta2", "sigma1", "sigma2", "rho")
_ALARM_FRACTION = 0.02

__all__ = ["MCCell", "MCConfig", "MCReport", "bias_mse", "replication_seed", "run_study"]


@dataclass(frozen=True)
class MCConfig:
    spec: GeneratorSpec
    true_theta: BLSParams  # rho field is overridden cell by cell
    sample_sizes: tuple[int, ...]
    rho_values: tuple[float, ...]
    replications: int
    master_seed: int

    def __post_init__(self):
        object.__setattr__(self, "sample_sizes", tuple(int(n) for n in self.sample_sizes))
        object.__setattr__(self, "rho_values", tuple(float(r) for r in self.rho_values))
        if self.replications < 1:
            raise DomainError("replications must be >= 1")
        if not self.sample_sizes or any(n < 10 for n in self.sample_sizes):
            raise DomainError("every sample size must be >= 10")
        if not self.rho_values or any(not -1.0 < r < 1.0 for r in self.rho_values):
            raise DomainError("every rho must lie in (-1, 1)")


@dataclass(frozen=True)
class MCCell:
    n: int
    rho: float
    bias: tuple[float, float, float, float, float]
    mse: tuple[float, float, float, float, float]
    used: int
    failed: int
    alarm: bool  # failures exceeded 2% of the cell's replications


@dataclass(frozen=True)
class MCReport:
    cells: tuple[MCCell, ...]
    replications: int
    master_seed: int
    spec_label: str

    def to_tsv(self) -> str:
        cols = ["n", "rho"]
        for name in _PARAM_NAMES:
            cols += [f"bias_{name}", f"mse_{name}"]
        cols += ["failed"]
        lines = ["\t".join(cols)]
        for c in self.cells:
            row = [str(c.n), f"{c.rho:g}"]
            for b, m in zip(c.bias, c.mse):
                row += [f"{b:.10g}", f"{m:.10g}"]
            row.append(str(c.failed))
            lines.append("\t".join(row))
        return "\n".join(lines) + "\n"

    def to_json(self, **kw) -> str:
        doc = {
            "spec": self.spec_label,
            "replications": self.replications,
            "master_seed": self.master_seed,
            "cells": [dataclasses.asdict(c) for c in self.cells],
        }
        return json.dumps(doc, **kw)


def bias_mse(estimates, truth: float) -> tuple[float, float]:
    """Empirical bias mean(est) - truth and MSE mean((est - truth)^2)."""
    est = np.asarray(estimates, dtype=float)
    if est.size == 0:
        raise DomainError("bias_mse requires at least one estimate")
    err = est - float(truth)
    return float(np.mean(err)), float(np.mean(err * err))


def replication_seed(master_seed: int, n_index: int, rho_index: int, rep: int) -> int:
    """Deterministic per-replication seed, unique across the study grid."""
    try:
        ss = np.random.SeedSequence((master_seed, n_index, rho_index, rep))
    except (TypeError, ValueError) as exc:  # a negative or non-integer seed
        raise DomainError(f"invalid master seed {master_seed!r}: {exc}") from None
    return int(ss.generate_state(1, np.uint64)[0])


def _one_replication(spec, theta_true, n, seed):
    try:
        fit = fit_mle(sample(theta_true, spec, n, seed), spec, compute_se=False)
    except BlsError:
        return None
    if not fit.converged:
        return None
    return fit.theta_hat.as_array()


def run_study(config: MCConfig, workers: int = 1) -> MCReport:
    """Run the full (n, rho) grid; deterministic for a fixed master seed.

    A replication fails, and counts in its cell's ``failed``, where its
    sample leaves the double range or its fit raises a BlsError or does
    not converge.
    """
    workers = max(1, int(workers))
    cells = []
    for i_n, n in enumerate(config.sample_sizes):
        for i_r, rho in enumerate(config.rho_values):
            theta_true = dataclasses.replace(config.true_theta, rho=rho)
            seeds = [
                replication_seed(config.master_seed, i_n, i_r, rep)
                for rep in range(config.replications)
            ]
            one = functools.partial(_one_replication, config.spec, theta_true, n)
            if workers == 1:
                results = [one(s) for s in seeds]
            else:
                from concurrent.futures import ThreadPoolExecutor

                with ThreadPoolExecutor(max_workers=workers) as pool:
                    results = list(pool.map(one, seeds))
            # aggregation in replication order: identical for any worker count
            kept = [r for r in results if r is not None]
            failed = config.replications - len(kept)
            truth = theta_true.as_array()
            if kept:
                stacked = np.vstack(kept)
                pairs = [bias_mse(stacked[:, j], truth[j]) for j in range(5)]
            else:
                pairs = [(math.nan, math.nan)] * 5
            cells.append(
                MCCell(
                    n=n,
                    rho=rho,
                    bias=tuple(p[0] for p in pairs),
                    mse=tuple(p[1] for p in pairs),
                    used=len(kept),
                    failed=failed,
                    alarm=failed > _ALARM_FRACTION * config.replications,
                )
            )
    return MCReport(
        cells=tuple(cells),
        replications=config.replications,
        master_seed=config.master_seed,
        spec_label=config.spec.label(),
    )
