"""Rival definitions of the combined treatment effect and their variances.

Five ways to summarize two proportional-hazards trials whose true log
hazard ratios differ:

* linear combinations on the log scale (``linear_log_hr``) or hazard-ratio
  scale (``linear_hr``);
* the probability limit of the pooled-data maximum partial likelihood
  estimate, defined by an integral estimating equation
  (``solve_theta_pl_general`` and its binary specialization
  ``solve_cpl_binary``), plus the administratively censored variant
  ``solve_censored_binary`` that quantifies the censoring bias of the
  pooled fit;
* the aggregate-data plug-in ``theta_m_estimate`` for that limit, which is
  robust to censoring because the per-trial inputs are;
* the harmonic-mean effect defined by the working-model score equation
  (``solve_theta_hm_general`` / ``c_hm_binary``), together with
  delta-method covariances and a Wald test.

All expectations over the covariate vector Z reduce to finite sums
against a tabulated law, so the solvers are exact up to quadrature.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .data import CovariateDistribution
from .errors import (
    DimensionMismatchError,
    MissingVarianceError,
    NonConvergenceError,
    SingularVarianceError,
)
from .numerics import (
    _WG,
    _WK,
    _XK,
    QuadratureSpec,
    brent_root,
    integrate_semi_infinite,
    newton_nd,
    solve_linear,
)

__all__ = [
    "TrialAggregate",
    "InverseVariance",
    "SizeProportional",
    "CustomWeights",
    "WeightScheme",
    "CombineMethod",
    "CombinedEffect",
    "WaldResult",
    "linear_log_hr",
    "linear_hr",
    "solve_cpl_binary",
    "solve_theta_pl_general",
    "solve_censored_binary",
    "theta_pl_sensitivity",
    "theta_m_estimate",
    "c_hm_binary",
    "solve_theta_hm_general",
    "theta_hm_estimate",
    "var_theta_hm_binary",
    "var_theta_hm_general",
    "wald_test",
]

# Residual tolerance for the binary-limit solves, whose residuals are
# themselves quadrature values: must sit above the quadrature noise floor.
_ROOT_TOL = 1e-9


@dataclass(frozen=True)
class TrialAggregate:
    """Per-trial summary: log-HR estimate, its covariance, subject count."""

    beta_hat: np.ndarray
    covariance: np.ndarray
    size: int
    label: str = ""

    def __post_init__(self):
        beta = np.atleast_1d(np.asarray(self.beta_hat, dtype=float))
        cov = np.atleast_2d(np.asarray(self.covariance, dtype=float))
        k = beta.shape[0]
        if cov.shape != (k, k):
            raise DimensionMismatchError(f"covariance must be {k}x{k}, got {cov.shape}")
        if not np.allclose(cov, cov.T, atol=1e-10):
            raise ValueError("covariance must be symmetric")
        if self.size < 1:
            raise ValueError("size must be positive")
        object.__setattr__(self, "beta_hat", beta)
        object.__setattr__(self, "covariance", cov)
        object.__setattr__(self, "size", int(self.size))

    @property
    def k(self) -> int:
        return self.beta_hat.shape[0]


@dataclass(frozen=True)
class InverseVariance:
    """Componentwise weights proportional to inverse variances."""


@dataclass(frozen=True)
class SizeProportional:
    """Weights proportional to trial sizes."""


@dataclass(frozen=True)
class CustomWeights:
    """Explicit positive weights summing to one."""

    weights: tuple

    def __post_init__(self):
        w = tuple(float(v) for v in self.weights)
        if any(v <= 0 for v in w):
            raise ValueError("weights must be positive")
        if abs(sum(w) - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {sum(w)!r}, not 1")
        object.__setattr__(self, "weights", w)


WeightScheme = InverseVariance | SizeProportional | CustomWeights


class CombineMethod(enum.Enum):
    LINEAR_LOG = "linear_log"
    LINEAR_HR = "linear_hr"
    POOLED_MPLE = "pooled_mple"
    MISSPECIFIED = "misspecified"
    HARMONIC_MEAN = "harmonic_mean"


@dataclass(frozen=True)
class CombinedEffect:
    """A combined estimate tagged by method.

    ``estimate`` is on the log hazard-ratio scale for every method except
    LINEAR_HR, which combines on the hazard-ratio scale directly.
    """

    method: CombineMethod
    estimate: np.ndarray
    covariance: np.ndarray | None
    mixing_p: float

    def __post_init__(self):
        est = np.atleast_1d(np.asarray(self.estimate, dtype=float))
        object.__setattr__(self, "estimate", est)
        if self.covariance is not None:
            cov = np.atleast_2d(np.asarray(self.covariance, dtype=float))
            if cov.shape != (est.shape[0], est.shape[0]):
                raise DimensionMismatchError("covariance shape must match estimate")
            object.__setattr__(self, "covariance", cov)
        if not 0 < self.mixing_p < 1:
            raise ValueError("mixing_p must lie in (0, 1)")


@dataclass(frozen=True)
class WaldResult:
    """Normal-reference Wald test of one component of a combined effect."""

    statistic: float
    p_value: float
    null_value: float


def _check_aggregates(aggregates) -> int:
    if len(aggregates) < 2:
        raise ValueError("need at least 2 trial aggregates")
    k = aggregates[0].k
    if any(a.k != k for a in aggregates):
        raise DimensionMismatchError("aggregates disagree on dimension")
    return k


def _weight_matrix(aggregates, scheme: WeightScheme) -> np.ndarray:
    """Per-trial, per-component weight rows summing to one over trials."""
    m = len(aggregates)
    k = aggregates[0].k
    if isinstance(scheme, InverseVariance):
        var = np.array([np.diag(a.covariance) for a in aggregates])
        if np.any(var <= 0):
            raise SingularVarianceError(
                "inverse-variance weighting needs strictly positive variances"
            )
        w = 1.0 / var
    elif isinstance(scheme, SizeProportional):
        w = np.tile(np.array([float(a.size) for a in aggregates])[:, None], (1, k))
    elif isinstance(scheme, CustomWeights):
        if len(scheme.weights) != m:
            raise DimensionMismatchError("one custom weight per trial required")
        w = np.tile(np.array(scheme.weights)[:, None], (1, k))
    else:
        raise TypeError(f"unknown weight scheme {scheme!r}")
    return w / w.sum(axis=0, keepdims=True)


def _mixing_p(aggregates) -> float:
    total = sum(a.size for a in aggregates)
    return aggregates[0].size / total


def linear_log_hr(aggregates, scheme: WeightScheme = InverseVariance()) -> CombinedEffect:
    """Convex combination of per-trial log hazard-ratio estimates.

    Component j of the estimate is sum_i w_ij * beta_hat_ij; for
    independent trials the covariance entry (j, l) is
    sum_i w_ij * w_il * Cov_i[j, l].
    """
    _check_aggregates(aggregates)
    w = _weight_matrix(aggregates, scheme)
    est = sum(w[i] * a.beta_hat for i, a in enumerate(aggregates))
    cov = sum(np.outer(w[i], w[i]) * a.covariance for i, a in enumerate(aggregates))
    return CombinedEffect(CombineMethod.LINEAR_LOG, est, cov, _mixing_p(aggregates))


def linear_hr(aggregates, scheme: WeightScheme = InverseVariance(), z=1.0) -> CombinedEffect:
    """Convex combination of hazard ratios at covariate value z.

    Component j is sum_i w_ij * exp(beta_hat_ij * z_j); the result lives
    on the hazard-ratio scale.  The covariance is first-order (delta
    method) in the per-trial estimates.
    """
    k = _check_aggregates(aggregates)
    z = np.broadcast_to(np.atleast_1d(np.asarray(z, dtype=float)), (k,))
    w = _weight_matrix(aggregates, scheme)
    hr = np.array([np.exp(a.beta_hat * z) for a in aggregates])  # (m, k)
    est = (w * hr).sum(axis=0)
    grad = w * hr * z  # d est_j / d beta_ij
    cov = sum(np.outer(grad[i], grad[i]) * a.covariance for i, a in enumerate(aggregates))
    return CombinedEffect(CombineMethod.LINEAR_HR, est, cov, _mixing_p(aggregates))


# ---------------------------------------------------------------------------
# Pooled partial-likelihood limit
# ---------------------------------------------------------------------------


def _validate_binary_args(a, b, p, q):
    a, b, p, q = (np.asarray(v, dtype=float) for v in (a, b, p, q))
    if not (np.all(np.isfinite(a) & (a > 0)) and np.all(np.isfinite(b) & (b > 0))):
        raise ValueError("hazard ratios must be positive and finite")
    if not (np.all((0 < p) & (p < 1)) and np.all((0 < q) & (q < 1))):
        raise ValueError("p and q must lie in (0, 1)")


def _cpl_binary_integrand(c, a, b, p, q):
    def f(u):
        eu = np.exp(-u)
        ea = np.exp(-a * u)
        eb = np.exp(-b * u)
        num = (1 - q) * eu + p * q * a * ea + (1 - p) * q * b * eb
        den = (1 - q) * eu + p * q * c * ea + (1 - p) * q * c * eb
        return num / den * eu

    return f


def _cpl_binary_adaptive(a, b, p, q, spec, target):
    """Brent over adaptive quadrature on [0, spec.tail_cut], for one cell.

    The fallback for every cell the fixed rule cannot certify.
    """

    def resid(c):
        return integrate_semi_infinite(_cpl_binary_integrand(c, a, b, p, q), spec) - target

    report = brent_root(resid, min(a, b), max(a, b), tol=_ROOT_TOL)
    if not report.converged:
        raise NonConvergenceError(
            f"bracketed solve left residual {report.residual_norm:.3e} above {_ROOT_TOL:.0e}"
        )
    return float(report.root[0])


# Fixed composite GK15 rule for the binary limit.  The first panel is
# [0, _RULE_FIRST / max(a, b, 1)], on which the fastest exponential falls
# by at most e^-1; the others grow geometrically, each at most
# exp(_RULE_LOG_RATIO) times the one before, up to the upper limit, so
# every exponential and every crossing between two of them is resolved at
# any spread of hazard ratios.  Cells are solved in blocks of _RULE_BLOCK
# to bound the (cells, panels, 15) temporaries.
_RULE_FIRST = 1.0
_RULE_LOG_RATIO = 0.3
_RULE_BLOCK = 32
_RULE_MAX_ITER = 50


def _cpl_binary_rule(a, b, p, q, upper, target, first, n_geo, spec):
    """Newton in c on the fixed rule for a block of cells of one panel count.

    Every argument but ``n_geo`` and ``spec`` is a 1-d array over cells
    with a != b; ``first`` is the end of each cell's first panel, and
    ``n_geo`` geometric panels follow it.  On any positive-weight rule the
    residual is convex and decreasing in c, so Newton from c = min(a, b),
    clipped to the bracket, climbs monotonically to the root.  Returns the
    roots and a mask of the cells that are certified: Newton converged,
    the Kronrod-Gauss error estimate meets the ``spec`` test of
    :func:`integrate_semi_infinite`, and |residual| <= _ROOT_TOL.  Each
    cell's arithmetic depends only on its own inputs, so a cell's root
    does not depend on the block it is solved in.
    """
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    frac = np.arange(n_geo + 1) / max(n_geo, 1)
    edges = np.zeros((a.size, n_geo + 2))
    edges[:, 1:] = first[:, None] * (upper / first)[:, None] ** frac
    edges[:, -1] = upper
    half = 0.5 * np.diff(edges, axis=1)
    u = (0.5 * (edges[:, 1:] + edges[:, :-1]))[..., None] + half[..., None] * _XK
    weight = half[..., None] * _WK
    a3, b3, p3, q3 = (v[:, None, None] for v in (a, b, p, q))
    e1 = np.exp(-u)
    ea = p3 * q3 * np.exp(-a3 * u)
    eb = (1 - p3) * q3 * np.exp(-b3 * u)
    base = (1 - q3) * e1
    slow = ea + eb
    mass = (base + a3 * ea + b3 * eb) * e1
    c = lo.copy()
    active = np.ones(a.size, dtype=bool)
    with np.errstate(all="ignore"):
        for _ in range(_RULE_MAX_ITER):
            den = base + c[:, None, None] * slow
            wy = weight * (mass / den)
            g = wy.sum(axis=(1, 2)) - target
            slope = -(wy * slow / den).sum(axis=(1, 2))
            step = np.clip(c - g / slope, lo, hi) - c
            # a cell is done once its step is down to rounding of c
            active &= step > 8 * np.finfo(float).eps * c
            if not active.any():
                break
            c = np.where(active, c + step, c)
        y = mass / (base + c[:, None, None] * slow)
        kron = (weight * y).sum(axis=2)
        gauss = (y[..., 1::2] * _WG).sum(axis=2) * half
        total = kron.sum(axis=1)
        err = np.abs(kron - gauss).sum(axis=1)
        certified = (
            ~active
            & (err <= np.maximum(spec.abs_tol, spec.rel_tol * np.abs(total)))
            & (np.abs(total - target) <= _ROOT_TOL)
        )
    return c, certified


def _pooled_limit_binary(a, b, p, q, upper, target, spec):
    """Binary pooled limit, broadcast over every argument but ``spec``.

    Solves integral_0^upper (pooled integrand) du = target for c on the
    fixed rule and sends each cell it cannot certify to the adaptive
    path.  Returns a float when every argument is scalar.
    """
    a, b, p, q, upper, target = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (a, b, p, q, upper, target))
    )
    out = np.array(a)
    cells = np.flatnonzero(a != b)
    cols = [v.ravel()[cells] for v in (a, b, p, q, upper, target)]
    first = np.minimum(_RULE_FIRST / np.maximum(np.maximum(cols[0], cols[1]), 1.0), cols[4])
    n_geo = np.ceil(np.log(cols[4] / first) / _RULE_LOG_RATIO).astype(np.int64)
    roots = np.empty(cells.size)
    for n in sorted(set(n_geo.tolist())):
        group = np.flatnonzero(n_geo == n)
        for start in range(0, group.size, _RULE_BLOCK):
            block = group[start : start + _RULE_BLOCK]
            args = [v[block] for v in cols]
            roots[block], certified = _cpl_binary_rule(*args, first[block], n, spec)
            for i in block[~certified]:
                ai, bi, pi, qi, ui, ti = (float(v[i]) for v in cols)
                roots[i] = _cpl_binary_adaptive(ai, bi, pi, qi, replace(spec, tail_cut=ui), ti)
    out.reshape(-1)[cells] = roots
    return float(out) if out.ndim == 0 else out


def solve_cpl_binary(a, b, p, q, quad_spec: QuadratureSpec | None = None):
    """Limit of the pooled-data MPLE hazard ratio for a binary arm indicator.

    Solves, for c, the moment identity

        1 = integral_0^inf [(1-q) e^-u + pqa e^-au + (1-p)qb e^-bu]
            / [(1-q) e^-u + pqc e^-au + (1-p)qc e^-bu] * e^-u du,

    truncated at ``quad_spec.tail_cut``.  The right side is strictly
    decreasing and convex in c, so the solution is unique and lies
    strictly between a and b.

    ``a``, ``b``, ``p`` and ``q`` broadcast against each other: scalars
    give a float, arrays an array of limits, one per cell.  All cells are
    solved together by Newton iteration from c = min(a, b) on a fixed
    composite Gauss-Kronrod rule whose panels grow geometrically from
    u = 0, the first one scaled to 1/max(a, b, 1).  A cell is accepted
    when its Kronrod-Gauss error estimate meets the ``quad_spec``
    tolerances, as in :func:`integrate_semi_infinite`, and its residual
    is at most 1e-9; any other cell falls back to a Brent solve over
    adaptive quadrature.  A cell with a == b returns a exactly.
    """
    _validate_binary_args(a, b, p, q)
    spec = quad_spec or QuadratureSpec()
    return _pooled_limit_binary(a, b, p, q, spec.tail_cut, 1.0, spec)


def solve_censored_binary(a, b, p, q, H, quad_spec: QuadratureSpec | None = None):
    """Pooled-MPLE limit under administrative censoring, binary covariate.

    ``H`` is the baseline cumulative hazard at the study end, so the
    moment identity becomes

        1 - e^-H = integral_0^H (same integrand as the uncensored case) du,

    with H capped at ``quad_spec.tail_cut``.  The solution exceeds the
    uncensored limit for every finite H and decays to it as H grows:
    censoring always biases the pooled fit toward the null.

    ``a``, ``b``, ``p``, ``q`` and ``H`` broadcast against each other and
    are solved as in :func:`solve_cpl_binary`: Newton on the same fixed
    rule over [0, min(H, tail_cut)], certified by the same test, with
    the adaptive Brent solve as the fallback.
    """
    _validate_binary_args(a, b, p, q)
    if not np.all(np.asarray(H) > 0):
        raise ValueError("H must be positive")
    spec = quad_spec or QuadratureSpec()
    upper = np.minimum(H, spec.tail_cut)
    return _pooled_limit_binary(a, b, p, q, upper, -np.expm1(-upper), spec)


def _pl_residual(alpha, beta, p, dist, quad_spec):
    """Residual of the pooled-limit estimating equation, general covariates.

    The semi-infinite integral is evaluated in the rescaled variable
    s = r * u with r the slowest hazard rate over trials and support
    points, so the rescaled integrand decays at least like e^-s and the
    quadrature tail cut stays harmless for small hazard ratios.
    """
    z = dist.support  # (m, k)
    pi = dist.probs
    mean_z = dist.mean
    ra = np.exp(z @ alpha)  # per-point hazard ratios, trial 1
    rb = np.exp(z @ beta)
    rate = float(min(ra.min(), rb.min()))
    mass_a = pi * ra
    mass_b = pi * rb
    k = z.shape[1]

    def residual(theta):
        et = np.exp(z @ theta)
        pe = pi * et
        out = np.empty(k)
        for j in range(k):
            zj = z[:, j]

            def f(s):
                u = s[:, None] / rate
                da = np.exp(-u * ra)  # (n_nodes, m)
                db = np.exp(-u * rb)
                den = p * (da @ pe) + (1 - p) * (db @ pe)
                num = p * (da @ (pe * zj)) + (1 - p) * (db @ (pe * zj))
                mass = p * (da @ mass_a) + (1 - p) * (db @ mass_b)
                return num / den * mass / rate

            out[j] = integrate_semi_infinite(f, quad_spec) - mean_z[j]
        return out

    return residual


def solve_theta_pl_general(
    alpha,
    beta,
    p: float,
    dist: CovariateDistribution,
    quad_spec: QuadratureSpec | None = None,
    newton_tol: float = 1e-9,
    x0=None,
) -> np.ndarray:
    """Limit of the pooled-data MPLE log hazard ratio, general covariates.

    Solves the k-dimensional estimating equation whose expectations over Z
    are finite sums against ``dist`` and whose outer integral is handled
    by adaptive quadrature.  Newton starts from the size-weighted
    combination p*alpha + (1-p)*beta unless ``x0`` overrides it.
    Uniqueness in the multivariate case is not asserted; a failed solve
    surfaces as NonConvergenceError rather than a wrong answer.
    """
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    if alpha.shape != beta.shape or alpha.shape != (dist.k,):
        raise DimensionMismatchError("alpha, beta, and the covariate law disagree on dimension")
    if not 0 < p < 1:
        raise ValueError("p must lie in (0, 1)")
    spec = quad_spec or QuadratureSpec()
    residual = _pl_residual(alpha, beta, p, dist, spec)
    start = p * alpha + (1 - p) * beta if x0 is None else np.asarray(x0, dtype=float)
    report = newton_nd(residual, start, tol=newton_tol, max_iter=60)
    return report.root


# Tight settings for sensitivity solves: finite differences divide the
# solver noise by the 1e-5 step, so the base solves must be much cleaner.
_SENS_QUAD = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-14)
_SENS_TOL = 1e-11


def theta_pl_sensitivity(
    alpha, beta, p: float, dist: CovariateDistribution, step: float = 1e-5
):
    """Central-difference sensitivities of the pooled limit to each input.

    Returns (J_alpha, J_beta): k x k matrices whose column j holds the
    derivative of the solution with respect to alpha_j (resp. beta_j).
    At alpha = beta symmetry forces J_alpha + J_beta = I.
    """
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    k = alpha.shape[0]
    base = solve_theta_pl_general(
        alpha, beta, p, dist, quad_spec=_SENS_QUAD, newton_tol=_SENS_TOL
    )

    def solve_at(al, be):
        return solve_theta_pl_general(
            al, be, p, dist, quad_spec=_SENS_QUAD, newton_tol=_SENS_TOL, x0=base
        )

    j_alpha = np.empty((k, k))
    j_beta = np.empty((k, k))
    for j in range(k):
        e = np.zeros(k)
        e[j] = step
        j_alpha[:, j] = (solve_at(alpha + e, beta) - solve_at(alpha - e, beta)) / (2 * step)
        j_beta[:, j] = (solve_at(alpha, beta + e) - solve_at(alpha, beta - e)) / (2 * step)
    return j_alpha, j_beta


def theta_m_estimate(aggregates, dist: CovariateDistribution) -> CombinedEffect:
    """Aggregate-data plug-in for the pooled-MPLE limit, with covariance.

    Exactly two trials are supported; the mixing proportion comes from
    their sizes.  The per-trial estimates are consistent for the true log
    hazard ratios whether or not the underlying data were censored, so
    this estimate stays unbiased for the uncensored pooled limit.  The
    covariance propagates the per-trial covariances through
    finite-difference sensitivities of the solution.
    """
    if len(aggregates) != 2:
        raise ValueError("the plug-in estimate is defined for exactly 2 trials")
    k = _check_aggregates(aggregates)
    if k != dist.k:
        raise DimensionMismatchError("aggregates and covariate law disagree on dimension")
    first, second = aggregates
    p = _mixing_p(aggregates)
    theta = solve_theta_pl_general(first.beta_hat, second.beta_hat, p, dist)
    j_a, j_b = theta_pl_sensitivity(first.beta_hat, second.beta_hat, p, dist)
    cov = j_a @ first.covariance @ j_a.T + j_b @ second.covariance @ j_b.T
    return CombinedEffect(CombineMethod.MISSPECIFIED, theta, 0.5 * (cov + cov.T), p)


# ---------------------------------------------------------------------------
# Harmonic-mean effect
# ---------------------------------------------------------------------------


def c_hm_binary(a: float, b: float, p: float) -> float:
    """Size-weighted harmonic mean of two hazard ratios."""
    if not (a > 0 and b > 0):
        raise ValueError("hazard ratios must be positive")
    if not 0 < p < 1:
        raise ValueError("p must lie in (0, 1)")
    return 1.0 / (p / a + (1 - p) / b)


def _hm_weights(theta, alpha, beta, p, dist):
    """Pointwise weights of the working-model score equation."""
    z = dist.support
    pi = dist.probs
    et = np.exp(z @ theta)
    wa = pi * et * p * np.exp(-z @ alpha)
    wb = pi * et * (1 - p) * np.exp(-z @ beta)
    return z, wa, wb


def solve_theta_hm_general(
    alpha, beta, p: float, dist: CovariateDistribution, tol: float = 1e-12
) -> np.ndarray:
    """Harmonic-mean combined log hazard ratio, general covariates.

    Solves E(Z) = E[e^{theta'Z} Z (p e^{-alpha'Z} + (1-p) e^{-beta'Z})],
    the score equation of an exponential working model fitted to the
    two-trial mixture; for a binary arm indicator the solution reduces to
    the log of the size-weighted harmonic mean, independent of the arm
    probability.
    """
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    if alpha.shape != beta.shape or alpha.shape != (dist.k,):
        raise DimensionMismatchError("alpha, beta, and the covariate law disagree on dimension")
    if not 0 < p < 1:
        raise ValueError("p must lie in (0, 1)")
    mean_z = dist.mean

    def residual(theta):
        z, wa, wb = _hm_weights(theta, alpha, beta, p, dist)
        return (wa + wb) @ z - mean_z

    report = newton_nd(residual, p * alpha + (1 - p) * beta, tol=tol, max_iter=60)
    return report.root


def var_theta_hm_binary(
    a_hat: float, b_hat: float, var_a: float, var_b: float, p: float
) -> float:
    """Delta-method variance of the binary harmonic-mean log hazard ratio.

    ``a_hat`` and ``b_hat`` are the per-trial hazard-ratio estimates
    (exponentiated log hazard ratios); ``var_a`` and ``var_b`` are the
    variances of the log-scale estimates.  With equal point estimates the
    formula degenerates to p^2 var_a + (1-p)^2 var_b, matching the linear
    combiner.
    """
    if not (a_hat > 0 and b_hat > 0):
        raise ValueError("hazard-ratio estimates must be positive")
    if var_a < 0 or var_b < 0:
        raise ValueError("variances must be nonnegative")
    if not 0 < p < 1:
        raise ValueError("p must lie in (0, 1)")
    ia, ib = 1.0 / a_hat, 1.0 / b_hat
    num = p**2 * ia**2 * var_a + (1 - p) ** 2 * ib**2 * var_b
    den = (p * ia + (1 - p) * ib) ** 2
    return num / den


def _hm_covariance(alpha, beta, cov_a, cov_b, p, dist, theta) -> np.ndarray:
    z, wa, wb = _hm_weights(theta, alpha, beta, p, dist)
    # implicit-function linear system: A d_theta = per-input moment matrices
    a_mat = (z * (wa + wb)[:, None]).T @ z
    rhs_a = (z * wa[:, None]).T @ z
    rhs_b = (z * wb[:, None]).T @ z
    k = z.shape[1]
    j_a = np.column_stack([solve_linear(a_mat, rhs_a[:, j]) for j in range(k)])
    j_b = np.column_stack([solve_linear(a_mat, rhs_b[:, j]) for j in range(k)])
    cov = j_a @ cov_a @ j_a.T + j_b @ cov_b @ j_b.T
    return 0.5 * (cov + cov.T)


def var_theta_hm_general(aggregates, dist: CovariateDistribution) -> np.ndarray:
    """Delta-method covariance of the general harmonic-mean effect.

    Differentiating the score equation implicitly gives one small linear
    system per input component; the sensitivities then sandwich the
    per-trial covariances.  For k = 1 binary covariates this reproduces
    the closed-form variance exactly.  This is the covariance that
    :func:`theta_hm_estimate` attaches to its estimate.
    """
    return theta_hm_estimate(aggregates, dist).covariance


def theta_hm_estimate(aggregates, dist: CovariateDistribution) -> CombinedEffect:
    """Harmonic-mean combined effect with delta-method covariance."""
    if len(aggregates) != 2:
        raise ValueError("the harmonic-mean pipeline is defined for exactly 2 trials")
    k = _check_aggregates(aggregates)
    if k != dist.k:
        raise DimensionMismatchError("aggregates and covariate law disagree on dimension")
    first, second = aggregates
    p = _mixing_p(aggregates)
    theta = solve_theta_hm_general(first.beta_hat, second.beta_hat, p, dist)
    cov = _hm_covariance(
        first.beta_hat, second.beta_hat, first.covariance, second.covariance, p, dist, theta
    )
    return CombinedEffect(CombineMethod.HARMONIC_MEAN, theta, cov, p)


def wald_test(effect: CombinedEffect, null_value: float = 0.0, component: int = 0) -> WaldResult:
    """Two-sided normal Wald test of one component of a combined effect."""
    if effect.covariance is None:
        raise MissingVarianceError("combined effect carries no covariance")
    k = effect.estimate.shape[0]
    if not 0 <= component < k:
        raise IndexError(f"component {component} out of range for dimension {k}")
    diff = float(effect.estimate[component]) - null_value
    sd = math.sqrt(max(float(effect.covariance[component, component]), 0.0))
    if sd == 0.0:
        statistic = 0.0 if diff == 0.0 else math.copysign(math.inf, diff)
    else:
        statistic = diff / sd
    p_value = math.erfc(abs(statistic) / math.sqrt(2.0))
    return WaldResult(statistic=statistic, p_value=p_value, null_value=null_value)
