"""Maximum-likelihood estimation for the bivariate log-symmetric model.

The likelihood is maximized in the unconstrained parametrization
phi = (log eta1, log eta2, log sigma1, log sigma2, atanh rho) by a damped
Newton iteration (_newton) on the analytic log-likelihood, score and Hessian
(_ll_score_hess; the Hessian uses the closed-form r'). Each point takes one
pass of generators._fit_kernel: a trial step is judged on its log g alone,
and its r and r', which reuse log g's special-function values, are computed
only at accepted points; estimates are reported in the original coordinates.
Where the score ratio r is singular at 0 the likelihood is not smooth at the
data pairs: the Bessel-K0 family's is unbounded (a logarithmic spike sits at
every data pair), and the power-exponential family with xi > 0 has a cusp
there, so no gradient test can pass when the optimum sits on a pair. For
these families the reported estimator is the maximizer of a C^1-winsorized
likelihood whose kernel is extended linearly below a small squared-radius
floor (see _xq_floor), reached through a coarser floor first; on the typical
sample no observation sits below the floor at the optimum and the result is
an exact stationary point of the true likelihood. Standard errors come from
the observed information: minus the same analytic Hessian at the fitted
point, mapped to the original coordinates.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from . import generators as gen
from .distribution import BLSParams, joint_log_pdf
from .errors import DomainError, RootFindingError, SingularInformationError
from .generators import GeneratorId, GeneratorParams, GeneratorSpec

_MIN_OBS = 5
_GRAD_TOL = 1e-6  # scaled infinity norm in the unconstrained parametrization
_MAX_TRIALS = 200  # Newton trial steps per homotopy stage
_ARMIJO = 1e-4
_RHO_CAP = 0.985  # initialization clip, not an optimization constraint
_UPPER = np.triu_indices(5)
_SYM = np.zeros((5, 5), dtype=int)  # where (i, j) and (j, i) sit in the upper triangle, row by row
_SYM[_UPPER] = _SYM.T[_UPPER] = np.arange(15)
_ROUNDING = 4.0 * 2.0**-52  # four ulps of 1: the slack of the Armijo test

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


def _log_sample(spec: GeneratorSpec, x: np.ndarray):
    # log x as (2, n) rows, sum log x and log Z: what _ll_score_hess needs
    logs = np.log(x)
    return np.ascontiguousarray(logs.T), float(np.sum(logs)), spec.log_z


def _ll_score_hess(
    phi: np.ndarray | list, spec: GeneratorSpec, lx, floor: float, cap: float = math.inf, r_floor=None
):
    """Log-likelihood, score and Hessian in phi, optionally winsorized, with
    lx = _log_sample(spec, x); where -ll > cap, r and r' are not computed and
    the score and Hessian are None. log g, r and r' come from one
    generators._fit_kernel pass. r_floor = r(floor) is taken here where a
    radius is clipped, unless given (once a Newton stage).

    phi = (log eta1, log eta2, log sigma1, log sigma2, atanh rho). With
    floor > 0 the kernel gets a C^1 linear extension below the floor:
    log g(q) for q < floor becomes log g(floor) + r(floor) * (q - floor), so
    a clipped radius has score ratio r(floor) and no r' term. Value and slope
    match at the floor, so the surrogate is exactly the true likelihood
    whenever every squared radius stays above it; all it changes is to bound
    the contribution a single near-center observation can make. floor = 0 is
    the exact likelihood.

    With z_k = (log t_k - a_k)/sigma_k, c = atanh rho and u = z1 cosh c -
    z2 sinh c, the squared radius is q = u^2 + z2^2 and the log-likelihood
    sum_i log g(q_i) - n (log Z + b1 + b2 - log cosh c) - sum log t. Its
    Hessian is sum_i [r_i grad^2 q_i + r'_i grad q_i grad q_i^T] +
    n sech^2 c e5 e5^T; the first sum needs only six r-weighted moments of
    z1 and z2.
    """
    logs, sum_logs, log_z = lx
    n = logs.shape[1]
    a1, a2, b1, b2, c = phi
    s1, s2 = math.exp(b1), math.exp(b2)
    ch, sh = math.cosh(c), math.sinh(c)
    Z = (logs - ((a1,), (a2,))) / ((s1,), (s2,))
    z1, z2 = Z
    u = ch * z1 - sh * z2
    q = u * u + z2 * z2
    low = q < floor if floor > 0.0 else None  # the clipped radii, if any
    if low is not None and not low.any():
        low = None
    q_eff = q if low is None else np.maximum(q, floor)
    base, derivs = gen._fit_kernel(spec, q_eff)
    if low is not None:  # linear extension term; -0 for unclipped radii
        base = base + (gen.r(spec, floor) if r_floor is None else r_floor) * (q - q_eff)
    const = log_z + b1 + b2 - math.log(ch)
    ll = float(base.sum() - n * const - sum_logs)
    if -ll > cap:
        return ll, None, None
    G, dG = derivs()
    if low is not None:
        dG[low] = 0.0
    # grad q: -dq/dz_k times 1/sigma_k is dq/da_k, and times z_k is dq/db_k
    t1, t2 = 1.0 / s1, 1.0 / s2
    Dq = np.empty((5, n))
    np.multiply(-2.0 * ch, u, out=Dq[0])
    np.multiply(-2.0, z2 - sh * u, out=Dq[1])
    np.multiply(Dq[:2], Z, out=Dq[2:4])
    Dq[:2] *= ((t1,), (t2,))
    np.multiply(2.0 * u, sh * z1 - ch * z2, out=Dq[4])
    score = Dq @ G + (0.0, 0.0, -n, -n, n * (sh / ch))
    # sum_i r_i grad^2 q_i from r-weighted moments of z1 and z2, with
    # d2q/dz^2 = [[A, -S], [-S, A]], A = 2 cosh^2 c, S = sinh 2c, C = cosh 2c
    ZG = Z * G
    m0 = float(G.sum())
    m1, m2 = ZG.sum(axis=1).tolist()
    (m11, m12), (_, m22) = (ZG @ Z.T).tolist()
    A, S, C = 2.0 * ch * ch, 2.0 * sh * ch, ch * ch + sh * sh
    upper = ((Dq * dG) @ Dq.T)[_UPPER] + [  # the upper triangle, row by row
        A * m0 * t1 * t1, -S * m0 * t1 * t2,
        (2 * A * m1 - S * m2) * t1, -S * m2 * t1, 2 * (C * m2 - S * m1) * t1,
        A * m0 * t2 * t2, -S * m1 * t2,
        (2 * A * m2 - S * m1) * t2, 2 * (C * m1 - S * m2) * t2,
        2 * A * m11 - S * m12, -S * m12, 2 * (C * m12 - S * m11),
        2 * A * m22 - S * m12, 2 * (C * m12 - S * m22),
        2 * C * (m11 + m22) - 4 * S * m12 + n / (ch * ch),
    ]
    return ll, score, upper[_SYM]


def log_likelihood(theta: BLSParams, spec: GeneratorSpec, data) -> float:
    """Full log-likelihood: sum of log joint densities including constants."""
    x = as_sample_matrix(data)
    return float(np.sum(joint_log_pdf(theta, spec, x[:, 0], x[:, 1])))


def score(theta: BLSParams, spec: GeneratorSpec, data) -> np.ndarray:
    """Analytic score (d ell / d eta1, eta2, sigma1, sigma2, rho).

    Uses G_i = r(x_i) = g'(x_i)/g(x_i) at the squared Mahalanobis radii; for
    families whose score ratio is singular at 0 a data point sitting exactly
    at (eta1, eta2) raises a domain error.
    """
    x = as_sample_matrix(data)
    return _ll_score_hess(_theta_to_phi(theta), spec, _log_sample(spec, x), 0.0)[1] / _dtheta_dphi(theta)


# ---------------------------------------------------------------------------
# unconstrained parametrization


def _theta_to_phi(theta: BLSParams) -> np.ndarray:
    return np.array([*theta.logs[:4], math.atanh(theta.rho)])


def _phi_to_theta(phi: np.ndarray) -> BLSParams:
    return BLSParams(
        math.exp(phi[0]),
        math.exp(phi[1]),
        math.exp(phi[2]),
        math.exp(phi[3]),
        math.tanh(phi[4]),
    )


def _dtheta_dphi(theta: BLSParams) -> np.ndarray:
    """The diagonal Jacobian d theta / d phi."""
    return np.array(
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
    return _starts(x, np.ascontiguousarray(np.log(x).T))


def _median(a: np.ndarray) -> np.ndarray:
    # np.median(a, axis=1) of finite (2, n) data, from one sort
    m, a = a.shape[1] // 2, np.sort(a, axis=1)
    return a[:, m] if a.shape[1] % 2 else 0.5 * (a[:, m - 1] + a[:, m])


def _starts(x: np.ndarray, logs: np.ndarray) -> list[BLSParams]:
    eta = _median(x.T).tolist()
    mad = _median(np.abs(logs - _median(logs)[:, None]))
    sigma = np.maximum(1.4826 * mad, 1e-3).tolist()
    # np.corrcoef(*logs)[0, 1] step by step, bar the clip the cap makes moot
    d = logs - logs.mean(axis=1)[:, None]
    (c00, c01), (_, c11) = (np.dot(d, d.T) * (1.0 / (x.shape[0] - 1))).tolist()
    corr = c01 / math.sqrt(c00) / math.sqrt(c11) if c00 > 0.0 and c11 > 0.0 else 0.0
    rho = min(max(corr, -_RHO_CAP), _RHO_CAP)
    first = BLSParams(eta[0], eta[1], sigma[0], sigma[1], rho)
    second = BLSParams(
        1.2 * eta[0], 0.8 * eta[1], 0.8 * sigma[0], 1.2 * sigma[1], 0.8 * rho
    )
    return [first, second]


_BAD_NLL = 1e30
# the objective's values off its domain: read-only, shared by every fit and thread
_GUARD = (_BAD_NLL, np.broadcast_to(0.0, 5), np.broadcast_to(0.0, (5, 5)))

# The Bessel-K0 likelihood is unbounded: a logarithmic spike sits at every
# data pair, and gradient methods, EM, and root finders all get captured by
# whichever data pair drifts closest to (eta1, eta2). The power-exponential
# likelihood with xi > 0 is bounded but has a cusp at every data pair
# (log g = -x^(1/(1+xi))/2 with r(x) -> -inf as x -> 0), so when the optimum
# sits on a pair no gradient test can pass there. The estimator of record for
# both is therefore the maximizer of the C^1-winsorized likelihood (see
# _ll_score_hess) with floor 0.05/n: the cap bounds one observation's pull at
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


def _objective(phi: np.ndarray, spec: GeneratorSpec, lx, floor: float, cap: float = math.inf, r_floor=None):
    """Negative log-likelihood, its gradient and Hessian in phi, guarded; the
    guard's values also where nll > cap. r_floor as in _ll_score_hess."""
    # the 60-box (NaN fails it) keeps exp() in range; no interior optimum
    # lives anywhere near it. rho must not round to +-1 either
    p = phi.tolist()
    if not (all(abs(v) <= 60.0 for v in p) and abs(math.tanh(p[4])) < 1.0):
        return _GUARD
    try:
        ll, s, h = _ll_score_hess(p, spec, lx, floor, cap, r_floor)
    except (DomainError, OverflowError):
        return _GUARD
    if not (math.isfinite(ll) and -ll <= cap and np.isfinite(s).all() and np.isfinite(h).all()):
        return _GUARD
    return -ll, -s, -h


def _newton(phi: np.ndarray, spec: GeneratorSpec, lx, floor: float):
    """Levenberg-Marquardt-damped Newton on _objective from phi.

    Each trial step solves (|H| + lam I) step = -grad in the eigenbasis of
    the Hessian H, where |H| takes the absolute value of each eigenvalue
    (floored at 1e-8 of the largest): near the optimum this is Newton's step,
    and where H is indefinite -- the spikes of the winsorized loglaplace
    likelihood -- it descends a direction of negative curvature instead of
    following it to the nearest data pair. A step is accepted when nll falls
    by the Armijo fraction of the predicted decrease, up to rounding in nll;
    lam grows tenfold on a rejected step and shrinks tenfold on an accepted
    one. A trial is judged on nll alone: the gradient, the Hessian and its
    eigenbasis come only at accepted points, and serve every trial from there.
    Stops at a scaled gradient <= 1e-10, or when no step lowers nll. r(floor)
    is taken once, for every trial.
    """
    r_floor = gen.r(spec, floor) if floor > 0.0 else None
    nll, grad, H = _objective(phi, spec, lx, floor, r_floor=r_floor)
    lam, steps, new = 0.0, 0, True
    for _ in range(_MAX_TRIALS):
        if new:  # the stopping test, and one eigendecomposition for every trial from here
            if nll >= 0.5 * _BAD_NLL or max(map(abs, grad.tolist())) <= 1e-10 * max(1.0, abs(nll)):
                break
            w, V = np.linalg.eigh(H)
            scale = max(1.0, abs(float(w[0])), abs(float(w[-1])))  # w ascends
            Vg, aw = V.T @ grad, np.maximum(np.abs(w), 1e-8 * scale)
        step = -V @ (Vg / (aw + lam))
        cand = phi + step
        cap = nll + _ARMIJO * float(grad @ step) + _ROUNDING * max(1.0, abs(nll))
        nll_c, grad_c, H_c = _objective(cand, spec, lx, floor, cap, r_floor)
        new = nll_c <= cap
        if new:
            phi, nll, grad, H = cand, nll_c, grad_c, H_c
            steps += 1
            lam *= 0.1
            continue
        lam = max(10.0 * lam, 1e-6 * scale)
        if lam > 1e12 * scale:
            break
    return phi, nll, grad, steps


def _minimize_from(phi0: np.ndarray, spec: GeneratorSpec, x: np.ndarray, lx):
    floor = _xq_floor(spec, x.shape[0])
    # homotopy: a coarse winsorization first (very smooth surface), then the
    # target floor starting from the coarse optimum; smooth families run a
    # single exact stage
    stages = (1e-2, floor) if 0.0 < floor < 1e-2 else (floor,)
    phi = np.asarray(phi0, dtype=float)
    steps = 0
    for f in stages:
        phi, nll, ngrad, k = _newton(phi, spec, lx, f)
        steps += k
    if floor > 0.0 and nll < 0.5 * _BAD_NLL:
        # convergence is judged on the winsorized estimating equation, but
        # the reported log-likelihood is the exact one (the quantity AIC and
        # BIC compare across families)
        ll_exact = float(np.sum(joint_log_pdf(_phi_to_theta(phi), spec, x[:, 0], x[:, 1])))
        if math.isfinite(ll_exact):
            nll = -ll_exact
    return phi, nll, ngrad, steps


def fit_mle(
    data,
    spec: GeneratorSpec,
    init: BLSParams | None = None,
    compute_se: bool = True,
) -> "FitResult":
    """Maximize the log-likelihood; see the module docstring for the method.

    With init=None the shipped starts are tried in order and the first one
    that converges (scaled gradient <= 1e-6) wins; if none does, the attempt
    with the smallest objective is reported with converged=False.
    FitResult.iterations counts the accepted Newton steps of that attempt,
    over both homotopy stages where there are two.
    """
    x = as_sample_matrix(data)
    n = x.shape[0]
    lx = _log_sample(spec, x)
    starts = [init] if init is not None else _starts(x, lx[0])

    best = None
    for s0 in starts:
        phi, nll, ngrad, iterations = _minimize_from(_theta_to_phi(s0), spec, x, lx)
        grad_norm = float(np.max(np.abs(ngrad))) / max(1.0, abs(nll))
        converged = grad_norm <= _GRAD_TOL and nll < 0.5 * _BAD_NLL
        if best is None or nll < best[1]:
            best = (phi, nll, iterations, grad_norm, converged)
        if converged:
            break
    phi, nll, iterations, grad_norm, converged = best

    theta_hat = _phi_to_theta(phi)
    ll = -nll
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
    return _with_se(result, x) if compute_se else result


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
            "theta_hat": dataclasses.asdict(self.theta_hat),
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

    The information is minus the analytic Hessian of the log-likelihood (see
    _ll_score_hess), mapped from phi to the ORIGINAL coordinates theta with
    the exact second-order chain rule, so it is the observed information in
    theta even where the score is not exactly 0. For the families with a
    winsorization floor (see _xq_floor) it is the curvature of the
    winsorized estimating equation the fit solves, which is well defined
    even when a data pair sits near the center.
    """
    if not fit.converged:
        raise DomainError("standard errors require a converged fit")
    x = as_sample_matrix(data)
    floor = _xq_floor(fit.spec, x.shape[0])
    th = fit.theta_hat
    _, s, h = _ll_score_hess(_theta_to_phi(th), fit.spec, _log_sample(fit.spec, x), floor)
    # H_phi = J H_theta J + diag(s_theta * d2theta/dphi2), with J = dtheta/dphi
    # and s_theta * d2theta/dphi2 = s_phi * (1, 1, 1, 1, -2 rho)
    h = h - np.diag(s * np.array([1.0, 1.0, 1.0, 1.0, -2.0 * th.rho]))
    jac = _dtheta_dphi(th)
    info = -h / np.outer(jac, jac)
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


def _with_se(fit: FitResult, x: np.ndarray) -> FitResult:
    # the fit with its standard errors attached, if it converged
    if not fit.converged:
        return fit
    se = standard_errors(fit, x)
    return dataclasses.replace(fit, std_errors=tuple(float(v) for v in se))


def _params_key(p: GeneratorParams) -> tuple:
    return tuple(v for v in (p.nu, p.xi, p.theta) if v is not None)


def profile_fit(
    data,
    family: GeneratorId | str,
    grid: list[GeneratorParams],
    compute_se: bool = True,
) -> tuple[GeneratorParams, FitResult]:
    """Grid profile likelihood over the extra generator parameter(s).

    Fits every grid point (without standard errors) and keeps the smallest
    parameter value among the points whose maximized log-likelihood is
    within 1e-9 * max(1, |ll|) of the best, so rounding noise cannot decide
    the winner. logpvii's theta is confounded with the scales (see
    blslab.generators): every theta at one xi reaches the same maximum, so
    only the smallest theta at each xi is fitted, the point the rule would
    keep. Standard errors, if requested, are attached to the kept fit
    itself, with no refit. The selection is deterministic and independent of
    grid order.
    """
    if not grid:
        raise DomainError("profile_fit requires a nonempty grid")
    x = as_sample_matrix(data)
    gid = gen._family_id(family)
    if gid is GeneratorId.PEARSON_VII:  # keep the smallest theta at each xi
        grid = [p for p in grid if not any(q.xi == p.xi and _params_key(q) < _params_key(p) for q in grid)]
    fits: list[tuple[GeneratorParams, FitResult]] = []
    failures: list[str] = []
    for params in grid:
        spec = GeneratorSpec(gid, params)
        try:
            fits.append((params, fit_mle(x, spec, compute_se=False)))
        except (DomainError, RootFindingError) as e:
            failures.append(f"{spec.label()}: {e}")
    if not fits:
        raise RootFindingError(
            "all profile grid points failed: " + "; ".join(failures)
        )
    top = max(fit.log_lik for _, fit in fits)
    tol = 1e-9 * max(1.0, abs(top))
    best = min(
        ((p, fit) for p, fit in fits if fit.log_lik >= top - tol),
        key=lambda pf: _params_key(pf[0]),
    )
    return (best[0], _with_se(best[1], x)) if compute_se else best
