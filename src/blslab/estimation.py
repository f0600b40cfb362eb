"""Maximum-likelihood estimation for the bivariate log-symmetric model.

The likelihood is maximized in the unconstrained parametrization
(log eta1, log eta2, log sigma1, log sigma2, atanh rho) with the analytic
score mapped through the chain rule, by L-BFGS-B followed by a few Newton
polishing steps on the same gradient; estimates are reported in the original
coordinates. Where the score ratio r is singular at 0 the likelihood is not
smooth at the data pairs: the Bessel-K0 family's is unbounded (a logarithmic
spike sits at every data pair), and the power-exponential family with xi > 0
has a cusp there, so no gradient test can pass when the optimum sits on a
pair. For these families the reported estimator is the maximizer of a
C^1-winsorized likelihood whose kernel is extended linearly below a small
squared-radius floor (see _xq_floor); on the typical sample no observation
sits below the floor at the optimum and the result is an exact stationary
point of the true likelihood. Standard errors come from the observed
information: a central finite-difference Jacobian of the estimating
equation's score (i.e. a numerical Hessian of the negative log-likelihood) at
the fitted point.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from . import generators as gen
from .distribution import BLSParams
from .errors import DomainError, RootFindingError, SingularInformationError
from .generators import GeneratorId, GeneratorParams, GeneratorSpec

_MIN_OBS = 5
_GRAD_TOL = 1e-6  # scaled infinity norm in the unconstrained parametrization
_MAX_NEWTON = 5
_RHO_CAP = 0.985  # initialization clip, not an optimization constraint

__all__ = [
    "FitResult",
    "as_sample_matrix",
    "default_starts",
    "fit_mle",
    "log_likelihood",
    "profile_fit",
    "score",
    "standard_errors",
]


def as_sample_matrix(data) -> np.ndarray:
    """Validate and return data as an (n, 2) float array, n >= 5, positive."""
    x = np.asarray(data, dtype=float)
    if x.ndim != 2 or x.shape[1] != 2:
        raise DomainError(f"data must be an (n, 2) array, got shape {x.shape}")
    if x.shape[0] < _MIN_OBS:
        raise DomainError(f"need at least {_MIN_OBS} observations, got {x.shape[0]}")
    if not np.all(np.isfinite(x)) or np.any(x <= 0.0):
        raise DomainError("data must be finite and strictly positive")
    return x


def _standardized(theta: BLSParams, x: np.ndarray):
    zt1 = (np.log(x[:, 0]) - math.log(theta.eta1)) / theta.sigma1
    zt2 = (np.log(x[:, 1]) - math.log(theta.eta2)) / theta.sigma2
    c2 = 1.0 - theta.rho * theta.rho
    u = (zt1 - theta.rho * zt2) / math.sqrt(c2)
    xq = u * u + zt2 * zt2
    return zt1, zt2, xq, c2


def _ll_and_score(theta: BLSParams, spec: GeneratorSpec, x: np.ndarray, floor: float):
    """Log-likelihood and score, optionally on a winsorized surrogate.

    With floor > 0 the kernel gets a C^1 linear extension below the floor:
    log g(u) for u < floor becomes log g(floor) + r(floor) * (u - floor) and
    the score ratio freezes at r(floor). Value and slope match at the floor,
    so the surrogate is exactly the true likelihood whenever every squared
    radius stays above it; all it changes is to bound the contribution a
    single near-center observation can make. floor = 0 is the exact
    likelihood.
    """
    n = x.shape[0]
    zt1, zt2, xq, c2 = _standardized(theta, x)
    xq_eff = np.maximum(xq, floor) if floor > 0.0 else xq
    const = -math.log(gen.partition_closed(spec)) - math.log(
        theta.sigma1 * theta.sigma2
    ) - 0.5 * math.log(c2)
    G = gen.r(spec, xq_eff)
    base = gen.log_g(spec, xq_eff)
    if floor > 0.0:
        # linear extension term; identically zero for unclipped radii
        base = base + G * (xq - xq_eff)
    ll = float(np.sum(base) + n * const - np.sum(np.log(x)))
    rho = theta.rho
    w1 = (zt1 - rho * zt2) / c2
    w2 = (zt2 - rho * zt1) / c2
    d_eta1 = -2.0 / (theta.sigma1 * theta.eta1) * float(np.sum(G * w1))
    d_eta2 = -2.0 / (theta.sigma2 * theta.eta2) * float(np.sum(G * w2))
    d_sig1 = -(2.0 * float(np.sum(G * w1 * zt1)) + n) / theta.sigma1
    d_sig2 = -(2.0 * float(np.sum(G * w2 * zt2)) + n) / theta.sigma2
    d_rho = 2.0 / c2 * float(np.sum(G * (rho * xq - zt1 * zt2))) + n * rho / c2
    return ll, np.array([d_eta1, d_eta2, d_sig1, d_sig2, d_rho])


def log_likelihood(theta: BLSParams, spec: GeneratorSpec, data) -> float:
    """Full log-likelihood: sum of log joint densities including constants."""
    x = as_sample_matrix(data)
    n = x.shape[0]
    _, _, xq, c2 = _standardized(theta, x)
    const = -math.log(gen.partition_closed(spec)) - math.log(
        theta.sigma1 * theta.sigma2
    ) - 0.5 * math.log(c2)
    return float(
        np.sum(gen.log_g(spec, xq)) + n * const - np.sum(np.log(x))
    )


def score(theta: BLSParams, spec: GeneratorSpec, data) -> np.ndarray:
    """Analytic score (d ell / d eta1, eta2, sigma1, sigma2, rho).

    Uses G_i = r(x_i) = g'(x_i)/g(x_i) at the squared Mahalanobis radii; for
    families whose score ratio is singular at 0 a data point sitting exactly
    at (eta1, eta2) raises a domain error.
    """
    x = as_sample_matrix(data)
    return _ll_and_score(theta, spec, x, 0.0)[1]


# ---------------------------------------------------------------------------
# unconstrained parametrization


def _theta_to_phi(theta: BLSParams) -> np.ndarray:
    return np.array(
        [
            math.log(theta.eta1),
            math.log(theta.eta2),
            math.log(theta.sigma1),
            math.log(theta.sigma2),
            math.atanh(theta.rho),
        ]
    )


def _phi_to_theta(phi: np.ndarray) -> BLSParams:
    return BLSParams(
        math.exp(phi[0]),
        math.exp(phi[1]),
        math.exp(phi[2]),
        math.exp(phi[3]),
        math.tanh(phi[4]),
    )


def _chain(theta: BLSParams, s: np.ndarray) -> np.ndarray:
    """Map the original-coordinate score to the unconstrained coordinates."""
    return s * np.array(
        [
            theta.eta1,
            theta.eta2,
            theta.sigma1,
            theta.sigma2,
            1.0 - theta.rho * theta.rho,
        ]
    )


def default_starts(data) -> list[BLSParams]:
    """The two shipped initializations: robust moments, and a 20% perturbation."""
    x = as_sample_matrix(data)
    logs = np.log(x)
    eta = np.median(x, axis=0)
    mad = np.median(np.abs(logs - np.median(logs, axis=0)), axis=0)
    sigma = np.maximum(1.4826 * mad, 1e-3)
    corr = float(np.corrcoef(logs[:, 0], logs[:, 1])[0, 1])
    if not np.isfinite(corr):
        corr = 0.0
    rho = float(np.clip(corr, -_RHO_CAP, _RHO_CAP))
    first = BLSParams(eta[0], eta[1], sigma[0], sigma[1], rho)
    second = BLSParams(
        1.2 * eta[0], 0.8 * eta[1], 0.8 * sigma[0], 1.2 * sigma[1], 0.8 * rho
    )
    return [first, second]


_BAD_NLL = 1e30

# The Bessel-K0 likelihood is unbounded: a logarithmic spike sits at every
# data pair, and gradient methods, EM, and root finders all get captured by
# whichever data pair drifts closest to (eta1, eta2). The power-exponential
# likelihood with xi > 0 is bounded but has a cusp at every data pair
# (log g = -x^(1/(1+xi))/2 with r(x) -> -inf as x -> 0), so when the optimum
# sits on a pair no gradient test can pass there. The estimator of record for
# both is therefore the maximizer of the C^1-winsorized likelihood (see
# _ll_and_score) with floor 0.05/n: the cap bounds one observation's pull at
# r(floor), so the smooth bulk of the sample keeps control, while the floor
# shrinks fast enough that the winsorized and exact maximizers coincide
# whenever no squared radius falls below it -- which is the typical sample,
# where the fit is an exact stationary point of the true likelihood.
# logslash's r is a 0/0 form at 0 with a finite limit, so it stays exact.
_SPIKE_COEF = 0.05


def _xq_floor(spec: GeneratorSpec, n: int) -> float:
    singular = spec.id is GeneratorId.LAPLACE or (
        spec.id is GeneratorId.POWER_EXP and spec.params.xi > 0.0
    )
    return _SPIKE_COEF / n if singular else 0.0


def _negloglik_and_grad(
    phi: np.ndarray, spec: GeneratorSpec, x: np.ndarray, floor: float = 0.0
):
    # the 60-box keeps exp() in range; no interior optimum lives anywhere near it
    if not np.all(np.isfinite(phi)) or float(np.max(np.abs(phi))) > 60.0:
        return _BAD_NLL, np.zeros(5)
    try:
        theta = _phi_to_theta(phi)
        ll, s = _ll_and_score(theta, spec, x, floor)
        if not math.isfinite(ll):
            return _BAD_NLL, np.zeros(5)
        g = _chain(theta, s)
    except (DomainError, OverflowError):
        return _BAD_NLL, np.zeros(5)
    if not np.all(np.isfinite(g)):
        return _BAD_NLL, np.zeros(5)
    return -ll, -g


def _fd_hessian_phi(
    phi: np.ndarray, spec: GeneratorSpec, x: np.ndarray, floor: float = 0.0
) -> np.ndarray:
    """Central-difference Jacobian of the unconstrained-gradient at phi."""
    h = 1e-5 * np.maximum(1.0, np.abs(phi))
    H = np.empty((5, 5))
    for j in range(5):
        ej = np.zeros(5)
        ej[j] = h[j]
        _, gp = _negloglik_and_grad(phi + ej, spec, x, floor)
        _, gm = _negloglik_and_grad(phi - ej, spec, x, floor)
        H[:, j] = (gp - gm) / (2.0 * h[j])
    return 0.5 * (H + H.T)


def _newton_polish(phi, nll, ngrad, spec, x, floor=0.0):
    """A few Newton steps on the analytic gradient: L-BFGS-B stops on its own
    criteria a few digits short of the 1e-6-per-coordinate agreement the
    closed-form oracles require."""
    iterations = 0
    for _ in range(_MAX_NEWTON):
        gnorm = float(np.max(np.abs(ngrad)))
        if gnorm <= 1e-10 * max(1.0, abs(nll)):
            break
        H = _fd_hessian_phi(phi, spec, x, floor)
        try:
            step = np.linalg.solve(H, -ngrad)
        except np.linalg.LinAlgError:
            break
        improved = False
        for scale in (1.0, 0.5, 0.25):
            cand = phi + scale * step
            nll_c, ngrad_c = _negloglik_and_grad(cand, spec, x, floor)
            if nll_c <= nll and np.max(np.abs(ngrad_c)) < np.max(np.abs(ngrad)):
                phi, nll, ngrad = cand, nll_c, ngrad_c
                improved = True
                iterations += 1
                break
        if not improved:
            break
    return phi, nll, ngrad, iterations


def _minimize_from(phi0: np.ndarray, spec: GeneratorSpec, x: np.ndarray):
    floor = _xq_floor(spec, x.shape[0])
    # homotopy: a coarse winsorization first (very smooth surface), then the
    # target floor starting from the coarse optimum; smooth families run a
    # single exact stage
    stages = (1e-2, floor) if 0.0 < floor < 1e-2 else (floor,)
    phi = np.asarray(phi0, dtype=float)
    nit = 0
    for f in stages:
        res = optimize.minimize(
            _negloglik_and_grad,
            phi,
            args=(spec, x, f),
            method="L-BFGS-B",
            jac=True,
            options={"maxiter": 500, "ftol": 1e-12, "gtol": 1e-8},
        )
        phi = np.asarray(res.x, dtype=float)
        nit += int(res.nit)
    nll, ngrad = _negloglik_and_grad(phi, spec, x, floor)
    phi, nll, ngrad, extra = _newton_polish(phi, nll, ngrad, spec, x, floor)
    if floor > 0.0:
        # convergence is judged on the winsorized estimating equation, but
        # the reported log-likelihood is the exact one (the quantity AIC and
        # BIC compare across families)
        nll_exact, _ = _negloglik_and_grad(phi, spec, x)
        if nll_exact < 0.5 * _BAD_NLL:
            nll = nll_exact
    return phi, nll, ngrad, nit + extra


def fit_mle(
    data,
    spec: GeneratorSpec,
    init: BLSParams | None = None,
    compute_se: bool = True,
) -> "FitResult":
    """Maximize the log-likelihood; see the module docstring for the method.

    With init=None the shipped starts are tried in order and the first one
    that converges wins; if none does, the attempt with the smallest
    objective is reported with converged=False.
    """
    x = as_sample_matrix(data)
    n = x.shape[0]
    starts = [init] if init is not None else default_starts(x)

    best = None
    for s0 in starts:
        phi, nll, ngrad, iterations = _minimize_from(_theta_to_phi(s0), spec, x)
        gn = float(np.max(np.abs(ngrad))) / max(1.0, abs(nll))
        ok = gn <= _GRAD_TOL and nll < 0.5 * _BAD_NLL
        if best is None or nll < best[1]:
            best = (phi, nll, ngrad, iterations, ok)
        if ok:
            break
    phi, nll, ngrad, iterations, ok = best

    theta_hat = _phi_to_theta(phi)
    ll = -nll
    grad_norm = float(np.max(np.abs(ngrad))) / max(1.0, abs(ll))
    converged = grad_norm <= _GRAD_TOL and nll < 0.5 * _BAD_NLL
    aic = -2.0 * ll + 2.0 * 5
    bic = -2.0 * ll + 5 * math.log(n)
    result = FitResult(
        theta_hat=theta_hat,
        std_errors=None,
        log_lik=ll,
        aic=aic,
        bic=bic,
        n_obs=n,
        converged=converged,
        iterations=iterations,
        grad_norm=grad_norm,
        spec=spec,
    )
    if compute_se and converged:
        se = standard_errors(result, x)
        result = FitResult(
            theta_hat=theta_hat,
            std_errors=tuple(float(v) for v in se),
            log_lik=ll,
            aic=aic,
            bic=bic,
            n_obs=n,
            converged=converged,
            iterations=iterations,
            grad_norm=grad_norm,
            spec=spec,
        )
    return result


@dataclass(frozen=True)
class FitResult:
    theta_hat: BLSParams
    std_errors: tuple[float, float, float, float, float] | None
    log_lik: float
    aic: float
    bic: float
    n_obs: int
    converged: bool
    iterations: int
    grad_norm: float
    spec: GeneratorSpec

    def to_dict(self) -> dict:
        return {
            "theta_hat": {
                "eta1": self.theta_hat.eta1,
                "eta2": self.theta_hat.eta2,
                "sigma1": self.theta_hat.sigma1,
                "sigma2": self.theta_hat.sigma2,
                "rho": self.theta_hat.rho,
            },
            "std_errors": list(self.std_errors) if self.std_errors else None,
            "log_lik": self.log_lik,
            "aic": self.aic,
            "bic": self.bic,
            "n_obs": self.n_obs,
            "converged": self.converged,
            "iterations": self.iterations,
            "grad_norm": self.grad_norm,
            "spec": self.spec.label(),
        }

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_dict(), **kw)


def standard_errors(fit: FitResult, data) -> np.ndarray:
    """Observed-information standard errors at the fitted parameters.

    The information matrix is the negative central-difference Jacobian of the
    analytic score in the ORIGINAL coordinates (equivalently, a numerical
    Hessian of the negative log-likelihood that differentiates numerically
    only once); steps adapt to the parameter scale and keep rho interior.
    For the families with a winsorization floor (see _xq_floor) the
    differentiated score is the winsorized estimating equation the fit
    solves, whose curvature at the optimum is well defined even when a data
    pair sits near the center.
    """
    if not fit.converged:
        raise DomainError("standard errors require a converged fit")
    x = as_sample_matrix(data)
    floor = _xq_floor(fit.spec, x.shape[0])
    th = np.asarray(fit.theta_hat.as_array(), dtype=float)
    eps3 = float(np.cbrt(np.finfo(float).eps))
    h = eps3 * np.maximum(np.abs(th), 0.01)
    h[4] = min(h[4], (1.0 - abs(th[4])) / 10.0)
    J = np.empty((5, 5))
    for j in range(5):
        ej = np.zeros(5)
        ej[j] = h[j]
        sp = _ll_and_score(BLSParams.from_array(th + ej), fit.spec, x, floor)[1]
        sm = _ll_and_score(BLSParams.from_array(th - ej), fit.spec, x, floor)[1]
        J[:, j] = (sp - sm) / (2.0 * h[j])
    info = -0.5 * (J + J.T)
    try:
        L = np.linalg.cholesky(info)
    except np.linalg.LinAlgError:
        raise SingularInformationError(
            "observed information is not positive definite at the fit"
        ) from None
    inv_diag = np.sum(np.linalg.inv(L) ** 2, axis=0)
    se = np.sqrt(inv_diag)
    if not np.all(np.isfinite(se)):
        raise SingularInformationError("standard errors are not finite")
    return se


def _params_key(p: GeneratorParams) -> tuple:
    return tuple(v for v in (p.nu, p.xi, p.theta) if v is not None)


def profile_fit(
    data,
    family: GeneratorId | str,
    grid: list[GeneratorParams],
    compute_se: bool = True,
) -> tuple[GeneratorParams, FitResult]:
    """Grid profile likelihood over the extra generator parameter(s).

    Fits every grid point (without standard errors), keeps the best maximized
    log-likelihood with ties broken toward the smaller parameter value, and
    refits the winner once with standard errors if requested. The selection
    is deterministic and independent of grid order.
    """
    if not grid:
        raise DomainError("profile_fit requires a nonempty grid")
    x = as_sample_matrix(data)
    gid = family if isinstance(family, GeneratorId) else gen.FAMILY_NAMES[family]
    best: tuple[GeneratorParams, FitResult] | None = None
    failures: list[str] = []
    for params in grid:
        spec = GeneratorSpec(gid, params)
        try:
            fit = fit_mle(x, spec, compute_se=False)
        except (DomainError, RootFindingError) as e:
            failures.append(f"{spec.label()}: {e}")
            continue
        if best is None:
            best = (params, fit)
            continue
        cur_ll, new_ll = best[1].log_lik, fit.log_lik
        if new_ll > cur_ll or (
            new_ll == cur_ll and _params_key(params) < _params_key(best[0])
        ):
            best = (params, fit)
    if best is None:
        raise RootFindingError(
            "all profile grid points failed: " + "; ".join(failures)
        )
    if compute_se:
        final = fit_mle(x, GeneratorSpec(gid, best[0]), compute_se=True)
        return best[0], final
    return best
