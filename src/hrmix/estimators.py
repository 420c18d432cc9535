"""Rival definitions of the combined treatment effect and their variances.

Five ways to summarize m >= 2 proportional-hazards trials whose true log
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
from dataclasses import dataclass

import numpy as np

from .data import CovariateDistribution, _integer
from .errors import (
    DimensionMismatchError,
    MissingVarianceError,
    NonConvergenceError,
    SingularMatrixError,
    SingularVarianceError,
)
from .numerics import _WG, _WK, _XK, _newton_min, solve_linear

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

# Residual tolerance for the pooled-limit solves, whose residuals are
# themselves quadrature values: must sit above the quadrature noise floor.
_ROOT_TOL = 1e-9
_HM_TOL = 1e-12  # the harmonic-mean score is a finite sum


@dataclass(frozen=True)
class TrialAggregate:
    """Per-trial summary: finite log-HR estimate and covariance, subject count.

    ``size`` must be a positive integer; an integral float such as 400.0 is
    accepted, and a bool or a fractional value raises ``ValueError``.
    """

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
        if not (np.all(np.isfinite(beta)) and np.all(np.isfinite(cov))):
            raise ValueError("beta_hat and covariance must be finite")
        if np.any(np.diag(cov) < 0):
            raise ValueError("variances must be nonnegative")
        if not np.allclose(cov, cov.T, atol=1e-10):
            raise ValueError("covariance must be symmetric")
        size = _integer(self.size, "size")
        if size < 1:
            raise ValueError("size must be positive")
        object.__setattr__(self, "beta_hat", beta)
        object.__setattr__(self, "covariance", cov)
        object.__setattr__(self, "size", size)

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
        if any(not v > 0 for v in w):
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


def _check_aggregates(aggregates, dist: CovariateDistribution | None = None) -> int:
    if len(aggregates) < 2:
        raise ValueError("need at least 2 trial aggregates")
    k = aggregates[0].k
    if any(a.k != k for a in aggregates):
        raise DimensionMismatchError("aggregates disagree on dimension")
    if dist is not None and dist.k != k:
        raise DimensionMismatchError("aggregates and covariate law disagree on dimension")
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


def _size_shares(sizes) -> list:
    """Each trial's share of the subjects; the last is one minus the others."""
    total = sum(sizes)
    shares = [n / total for n in sizes[:-1]]
    return shares + [1 - sum(shares)]


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
    p = _size_shares([a.size for a in aggregates])[0]
    return CombinedEffect(CombineMethod.LINEAR_LOG, est, cov, p)


def linear_hr(aggregates, scheme: WeightScheme = InverseVariance(), z=1.0) -> CombinedEffect:
    """Convex combination of hazard ratios at covariate value z.

    Component j is sum_i w_ij * exp(beta_hat_ij * z_j); the result lives
    on the hazard-ratio scale.  The covariance is first-order (delta
    method) in the per-trial estimates.  A z at which either overflows
    raises ``ValueError``.
    """
    k = _check_aggregates(aggregates)
    z = np.broadcast_to(np.atleast_1d(np.asarray(z, dtype=float)), (k,))
    if not np.all(np.isfinite(z)):
        raise ValueError("z must be finite")
    w = _weight_matrix(aggregates, scheme)
    with np.errstate(over="ignore", invalid="ignore"):
        hr = np.array([np.exp(a.beta_hat * z) for a in aggregates])  # (m, k)
        est = (w * hr).sum(axis=0)
        grad = w * hr * z  # d est_j / d beta_ij
        cov = sum(np.outer(grad[i], grad[i]) * a.covariance for i, a in enumerate(aggregates))
    if not (np.all(np.isfinite(est)) and np.all(np.isfinite(cov))):
        raise ValueError(f"e^(beta*z) or its covariance overflows at z = {z.tolist()}")
    p = _size_shares([a.size for a in aggregates])[0]
    return CombinedEffect(CombineMethod.LINEAR_HR, est, cov, p)


# ---------------------------------------------------------------------------
# Pooled partial-likelihood limit
# ---------------------------------------------------------------------------


def _validate_binary_args(a, b, p, q=None):
    """ValueError unless a and b are positive and finite and p and q, when
    given, lie in (0, 1); the message names p or q."""
    a, b = (np.asarray(v, dtype=float) for v in (a, b))
    if not (np.all(np.isfinite(a) & (a > 0)) and np.all(np.isfinite(b) & (b > 0))):
        raise ValueError("hazard ratios must be positive and finite")
    for name, v in (("p", p), ("q", q)):
        if v is None:
            continue
        v = np.asarray(v, dtype=float)
        if not np.all((0 < v) & (v < 1)):
            raise ValueError(f"{name} must lie in (0, 1)")


# Fixed composite GK15 rule for the pooled limits.  The first panel is
# [0, _RULE_FIRST / r] with r the fastest rate (for the binary law, the
# largest of 1 and the trials' hazard ratios), on which the fastest
# exponential falls by at most e^-1; the others grow geometrically, each at
# most exp(_RULE_LOG_RATIO) times the one before, up to the upper limit, so
# every exponential and every crossing between two of them is resolved at
# any spread of hazard ratios.  The integrals stop at _TAIL_CUT, past which
# the integrands are below e^-_TAIL_CUT times a polynomial factor.  An
# integral is certified when its summed Kronrod-Gauss error is at most
# max(_QUAD_ABS_TOL, _QUAD_REL_TOL * |value|), and a binary root when that
# error over the residual's slope in log c is at most _ROOT_RTOL.  Binary
# cells are solved in blocks of _RULE_BLOCK to bound the (cells, panels,
# 15) temporaries.
_RULE_FIRST = 1.0
_RULE_LOG_RATIO = 0.3
_RULE_BLOCK = 32
_RULE_MAX_ITER = 50
_TAIL_CUT = 50.0
_QUAD_REL_TOL = 1e-10
_QUAD_ABS_TOL = 1e-12
_ROOT_RTOL = 1e-11


def _rule_panels(fastest, upper):
    """End of the first panel and count of geometric panels up to ``upper``."""
    first = np.minimum(_RULE_FIRST / fastest, upper)
    return first, np.ceil(np.log(upper / first) / _RULE_LOG_RATIO).astype(np.int64)


def _rule_nodes(first, upper, n_geo):
    """Nodes and Kronrod weights, shape S + (panels, 15), and half-widths.

    S is the common shape of ``first`` and ``upper``.
    """
    frac = np.arange(n_geo + 1) / max(n_geo, 1)
    edges = np.zeros(first.shape + (n_geo + 2,))
    edges[..., 1:] = first[..., None] * (upper / first)[..., None] ** frac
    edges[..., -1] = upper
    half = 0.5 * np.diff(edges, axis=-1)
    u = (0.5 * (edges[..., 1:] + edges[..., :-1]))[..., None] + half[..., None] * _XK
    return u, half[..., None] * _WK, half


def _rule_total(y, weight, half):
    """Kronrod totals of ``y`` and their summed Kronrod-Gauss error estimates."""
    kron = (weight * y).sum(axis=-1)
    gauss = (y[..., 1::2] * _WG).sum(axis=-1) * half
    return kron.sum(axis=-1), np.abs(kron - gauss).sum(axis=-1)


def _rule_certified(y, weight, half):
    """Kronrod totals of ``y`` and a mask of those whose error estimate passes."""
    total, err = _rule_total(y, weight, half)
    return total, err <= np.maximum(_QUAD_ABS_TOL, _QUAD_REL_TOL * np.abs(total))


def _cpl_binary_rule(rates, weights, q, upper, target, first, n_geo, refined=False):
    """Newton in c on the fixed rule for a block of cells of one panel count.

    ``rates`` and ``weights``, shaped (trials, cells), hold each trial's
    treated hazard ratio r_j and share w_j of the subjects, in trial order,
    for cells whose rates are not all equal; every other argument but
    ``n_geo`` and ``refined`` is a 1-d array over those cells.  ``first``
    is the end of each cell's first panel, and ``n_geo`` geometric panels
    follow it.  On any positive-weight rule the residual is convex and
    decreasing in c, so Newton from c = min_j r_j, clipped to the bracket,
    climbs monotonically to the root.  Returns the roots and a mask of the
    cells that are certified: Newton converged, |residual| <= _ROOT_TOL,
    and the Kronrod-Gauss error estimate over the residual's slope in log
    c, the relative error it puts on the root, is at most _ROOT_RTOL.
    Each cell's arithmetic depends only on its own inputs, so a cell's
    root does not depend on the block it is solved in.

    The integrand is e^-u + sum_j (r_j - c) e_j e^-u / den, with
    e_j = w_j q e^{-r_j u} the treated terms of den.  Where the second part
    is small, its dependence on c drowns in the rounding of the first, so a
    ``refined`` solve integrates e^-u in closed form and sums only the
    second part.
    """
    lo, hi = np.minimum.reduce(rates), np.maximum.reduce(rates)
    u, weight, half = _rule_nodes(first, upper, n_geo)
    r3 = [r[:, None, None] for r in rates]
    q3 = q[:, None, None]
    e1 = np.exp(-u)
    terms = [w[:, None, None] * q3 * np.exp(-r * u) for w, r in zip(weights, r3)]
    base = (1 - q3) * e1
    # summed in trial order, in place: each (cells, panels, 15) temporary costs time
    slow = sum(terms[1:], terms[0])
    mass = base + r3[0] * terms[0]
    for r, t in zip(r3[1:], terms[1:]):
        mass += r * t
    mass *= e1
    rhs = target + np.expm1(-upper) if refined else target

    def integrand(c, den):
        if not refined:
            return mass / den
        c3 = c[:, None, None]
        moving = [(r - c3) * t for r, t in zip(r3, terms)]
        return sum(moving[1:], moving[0]) * e1 / den

    c = lo.copy()
    active = np.ones(c.size, dtype=bool)
    with np.errstate(all="ignore"):
        for _ in range(_RULE_MAX_ITER):
            den = base + c[:, None, None] * slow
            wy = weight * (mass / den)
            slope = -(wy * slow / den).sum(axis=(1, 2))
            if refined:
                wy = weight * integrand(c, den)
            g = wy.sum(axis=(1, 2)) - rhs
            step = np.clip(c - g / slope, lo, hi) - c
            # a cell is done once its step is down to rounding of c
            active &= step > 8 * np.finfo(float).eps * c
            if not active.any():
                break
            c = np.where(active, c + step, c)
        # den and slope were last taken at the final c of every stopped cell
        total, err = _rule_total(integrand(c, den), weight, half)
        certified = ~active & (np.abs(total - rhs) <= _ROOT_TOL)
        certified &= err <= -_ROOT_RTOL * c * slope
    return c, certified


def _pooled_limit_binary(rates, weights, q, H):
    """Binary pooled limit of m trials at study-end cumulative hazard ``H``.

    ``rates`` and ``weights`` hold each trial's treated hazard ratio and
    share of the subjects, in trial order; their entries, ``q`` and ``H``
    broadcast against each other.  Solves integral_0^upper (pooled
    integrand) du = 1 - e^-upper for c on the fixed rule, with upper =
    min(H, 50).  Each cell it cannot certify is solved once more, refined:
    on twice the geometric panels, summing only the part of the integrand
    that moves with c.  A cell that still fails comes back NaN, so one
    cell's failure leaves every other cell's root in place; a cell whose
    rates are all equal returns that rate exactly.  Returns a float when
    every argument is scalar.
    """
    if not np.all(np.asarray(H) > 0):
        raise ValueError("H must be positive")
    upper = np.minimum(H, _TAIL_CUT)
    *trials, q, upper, target = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (*rates, *weights, q, upper, -np.expm1(-upper)))
    )
    out = np.array(trials[0])
    rates, weights = np.reshape(trials, (2, len(rates), -1))
    cells = np.flatnonzero(np.minimum.reduce(rates) != np.maximum.reduce(rates))
    rates, weights = rates[:, cells], weights[:, cells]
    q, upper, target = (v.ravel()[cells] for v in (q, upper, target))
    first, n_geo = _rule_panels(np.maximum(np.maximum.reduce(rates), 1.0), upper)
    cols = (rates, weights, q, upper, target, first)
    roots = np.empty(cells.size)
    for n in sorted(set(n_geo.tolist())):
        group = np.flatnonzero(n_geo == n)
        for start in range(0, group.size, _RULE_BLOCK):
            block = group[start : start + _RULE_BLOCK]
            roots[block], certified = _cpl_binary_rule(*(v[..., block] for v in cols), n)
            redo = block[~certified]
            if redo.size:
                roots[redo], certified = _cpl_binary_rule(
                    *(v[..., redo] for v in cols), 2 * n, refined=True
                )
                roots[redo[~certified]] = np.nan
    out.reshape(-1)[cells] = roots
    return float(out) if out.ndim == 0 else out


def solve_cpl_binary(a, b, p, q):
    """Limit of the pooled-data MPLE hazard ratio for a binary arm indicator.

    Solves, for c, the moment identity

        1 = integral_0^inf [(1-q) e^-u + pqa e^-au + (1-p)qb e^-bu]
            / [(1-q) e^-u + pqc e^-au + (1-p)qc e^-bu] * e^-u du,

    truncated at u = 50: :func:`solve_censored_binary` at H = inf.  The
    right side is strictly decreasing and convex in c, so the solution is
    unique and lies strictly between a and b.

    ``a``, ``b``, ``p`` and ``q`` broadcast against each other: scalars
    give a float, arrays an array of limits, one per cell.  All cells are
    solved together by Newton iteration from c = min(a, b) on a fixed
    composite Gauss-Kronrod rule whose panels grow geometrically from
    u = 0, the first one scaled to 1/max(a, b, 1).  A cell is accepted
    when its residual is at most 1e-9 and its summed Kronrod-Gauss error
    estimate, divided by the residual's slope in log c, is at most 1e-11:
    a bound on the relative error of the root.  Any other cell is solved
    again on twice the geometric panels, with e^-u, the part of the
    integrand that does not move with c, integrated in closed form.  If a
    cell still fails, NonConvergenceError names it.  A cell with a == b
    returns a exactly.
    """
    return solve_censored_binary(a, b, p, q, np.inf)


def solve_censored_binary(a, b, p, q, H):
    """Pooled-MPLE limit under administrative censoring, binary covariate.

    ``H`` is the baseline cumulative hazard at the study end, so the
    moment identity becomes

        1 - e^-H = integral_0^H (same integrand as the uncensored case) du,

    with H capped at 50, so any H of 50 or more gives the uncensored
    limit exactly.  The solution exceeds the uncensored limit for every
    smaller H and decays to it as H grows: censoring always biases the
    pooled fit toward the null.

    ``a``, ``b``, ``p``, ``q`` and ``H`` broadcast against each other and
    are solved as in :func:`solve_cpl_binary`: Newton on the same fixed
    rule over [0, min(H, 50)], certified by the same test, with one
    refinement before NonConvergenceError.
    """
    _validate_binary_args(a, b, p, q)
    c = _pooled_limit_binary([a, b], [p, np.subtract(1.0, p)], q, H)
    failed = np.flatnonzero(np.isnan(c))
    if failed.size:
        a, b, p, q, H = (float(v.flat[failed[0]]) for v in np.broadcast_arrays(a, b, p, q, H))
        raise NonConvergenceError(
            "the fixed rule cannot certify the pooled limit at "
            f"(a, b, p, q) = {(a, b, p, q)} on [0, {min(H, _TAIL_CUT)}]"
        )
    return c


def _trial_lists(alpha, beta, p, dist):
    """The two-trial inputs of a public solver as per-trial effects and weights."""
    effects = [np.atleast_1d(np.asarray(v, dtype=float)) for v in (alpha, beta)]
    if any(e.shape != (dist.k,) for e in effects):
        raise DimensionMismatchError("alpha, beta, and the covariate law disagree on dimension")
    if not 0 < p < 1:
        raise ValueError("p must lie in (0, 1)")
    return effects, [p, 1 - p]


def _check_span(points, k):
    if np.linalg.matrix_rank(points) < k:
        raise SingularMatrixError("the covariate law's support spans fewer than k dimensions")


def _pl_equation(effects, weights, dist):
    """The general pooled-limit estimating equation on the fixed rule.

    ``effects`` holds each trial's log hazard ratio beta_j and ``weights``
    its share w_j of the subjects, in trial order.  In the baseline
    cumulative hazard u, R(theta) = integral_0^inf S1/S0 M du - E(Z) with
    S_r = sum_i pi_i e^{theta'z_i} z_i^r D_i(u), D_i = sum_j w_j e^{-u r_ji},
    r_ji = e^{beta_j'z_i}, and the event density M = -sum_i pi_i D_i'.
    The partial likelihood ignores a shift of Z, so Z is measured from
    the last support point; the integrand then decays like the slowest
    rate of the other points, and the last panel ends where that rate
    has decayed by e^-_TAIL_CUT.  For the {0, 1} law the residual is
    -(1-q) times the binary one on the same panels.

    R is the gradient of the expected log partial likelihood Phi(theta) =
    integral_0^inf log(S0) M du - theta'E(Z) (Struthers & Kalbfleisch 1986).
    Returns ``equation(theta, inputs=False)``: Phi(theta), R(theta),
    dR/dtheta, whether the rule certifies R, and the list of dR/dbeta_j,
    empty unless ``inputs``, all on the same nodes in one pass.
    """
    if dist.support.shape[0] < 2:
        raise ValueError("the pooled limit needs a covariate law with two or more points")
    _check_span(dist.support - dist.support[-1], dist.k)
    z, pi = dist.support, dist.probs
    with np.errstate(all="ignore"):
        rates = [np.exp(z @ beta) for beta in effects]
        upper = np.array(_TAIL_CUT / min(r[:-1].min() for r in rates))
    if not (all(np.all(np.isfinite(r) & (r > 0)) for r in rates) and np.isfinite(upper)):
        raise NonConvergenceError(
            "the pooled limit is out of the fixed rule's range: "
            "e^{beta'z} over- or underflows on the covariate law's support"
        )
    first, n_geo = _rule_panels(max(r.max() for r in rates), upper)
    u, weight, half = _rule_nodes(first, upper, int(n_geo))
    u, flat = u.reshape(-1, 1), weight.ravel()
    terms = [w * np.exp(-u * r) for w, r in zip(weights, rates)]  # (nodes, points) each
    mass = sum(t @ (pi * r) for t, r in zip(terms, rates))
    zs = z - z[-1]

    def equation(theta, inputs=False):
        # a Newton trial step can overflow e^{theta'z}; the non-finite
        # objective makes Newton halve the step, or the certificate fails
        with np.errstate(all="ignore"):
            e = pi * np.exp(zs @ theta)
            # summed from the first term, not from 0, so that the sum makes
            # one (nodes, points) temporary, which the product then reuses
            w = sum(terms[1:], terms[0]) * e
            s0 = w.sum(axis=1)
            xbar = (w @ zs) / s0[:, None]
            y = (xbar * mass[:, None]).T.reshape((-1,) + weight.shape)
            total, within = _rule_certified(y, weight, half)
            # dR/dtheta: the risk-set covariance of Z against the event density
            wm = flat * mass
            g = wm / s0
            jac = (zs * (g @ w)[:, None]).T @ zs - (xbar * wm[:, None]).T @ xbar
            phi = wm @ np.log(s0) - theta @ (pi @ zs)
            d_inputs = []
            for ex, rate in zip(terms, rates) if inputs else ():
                # beta_j moves D_i by -u r_ji z_i w_j e^{-u r_ji} and M by
                # pi_i r_ji (1 - u r_ji) z_i w_j e^{-u r_ji}
                via_d = g[:, None] * u * ex * (e * rate)
                via_m = flat[:, None] * ex * (pi * rate) * (1 - u * rate)
                d_input = xbar.T @ ((via_d + via_m) @ z)
                d_inputs.append(d_input - (zs * via_d.sum(axis=0)[:, None]).T @ z)
        return phi, total - pi @ zs, jac, bool(within.all()), d_inputs

    return equation


def _pl_root(effects, weights, dist):
    """The general pooled limit and the equation it solves."""
    equation = _pl_equation(effects, weights, dist)
    if all(np.array_equal(effects[0], beta) for beta in effects[1:]):
        return effects[0].copy(), equation
    start = sum(w * beta for w, beta in zip(weights, effects))
    theta = _newton_min(lambda t: equation(t)[:3], start, _ROOT_TOL)
    # Newton converges quadratically, so two more steps take a root with
    # |R| <= _ROOT_TOL down to the rounding floor of R even where R is flat
    for _ in range(2):
        _, resid, jac, within, _ = equation(theta)
        if not within:
            raise NonConvergenceError("the fixed rule cannot certify the pooled-limit root")
        theta = theta - solve_linear(jac, resid)
    return theta, equation


def solve_theta_pl_general(alpha, beta, p: float, dist: CovariateDistribution) -> np.ndarray:
    """Limit of the pooled-data MPLE log hazard ratio, general covariates.

    The limit minimises the expected log partial likelihood, whose
    expectations over Z are finite sums against ``dist``, on the fixed
    composite rule of :func:`solve_cpl_binary`.  It is strictly convex, so
    the minimiser is unique, wherever the support spans k dimensions; a
    support that does not raises SingularMatrixError.  Newton with Armijo
    backtracking runs from p*alpha + (1-p)*beta to a gradient max-norm of
    1e-9, then takes two more full steps; alpha == beta returns alpha
    exactly.  A root at which the Kronrod-Gauss error estimate of the
    integral exceeds max(1e-12, 1e-10 * |integral|) raises
    NonConvergenceError, as do effects whose e^{beta'z} over- or
    underflows on the support.
    """
    return _pl_root(*_trial_lists(alpha, beta, p, dist), dist)[0]


def _sandwich(jac, d_inputs, covariances):
    """Delta-method covariance sum_j J_j Cov_j J_j' of a root of R, with
    implicit-function sensitivities J_j = -(dR/dtheta)^-1 dR/dbeta_j."""
    sens = [solve_linear(jac, -d) for d in d_inputs]
    cov = sum(j @ c @ j.T for j, c in zip(sens, covariances))
    return 0.5 * (cov + cov.T)


def theta_pl_sensitivity(alpha, beta, p: float, dist: CovariateDistribution):
    """Sensitivities (J_alpha, J_beta) of the pooled limit to its inputs.

    Column j of J_alpha holds the derivative with respect to alpha_j, from
    the implicit-function theorem J_alpha = -(dR/dtheta)^-1 dR/dalpha on
    the residual R.  At alpha = beta symmetry forces J_alpha + J_beta = I.
    """
    theta, equation = _pl_root(*_trial_lists(alpha, beta, p, dist), dist)
    _, _, jac, _, d_inputs = equation(theta, inputs=True)
    return tuple(solve_linear(jac, -d) for d in d_inputs)


def theta_m_estimate(aggregates, dist: CovariateDistribution) -> CombinedEffect:
    """Aggregate-data plug-in for the pooled-MPLE limit, with covariance.

    Any m >= 2 trials are combined, each weighted by its share of the
    subjects.  The per-trial estimates are consistent for the true log
    hazard ratios whether or not the underlying data were censored, so
    this estimate stays unbiased for the uncensored pooled limit.  The
    covariance is the delta-method sandwich of the per-trial covariances
    with the implicit-function sensitivities of :func:`theta_pl_sensitivity`.
    """
    _check_aggregates(aggregates, dist)
    weights = _size_shares([a.size for a in aggregates])
    theta, equation = _pl_root([a.beta_hat for a in aggregates], weights, dist)
    _, _, jac, _, d_inputs = equation(theta, inputs=True)
    cov = _sandwich(jac, d_inputs, [a.covariance for a in aggregates])
    return CombinedEffect(CombineMethod.MISSPECIFIED, theta, cov, weights[0])


# ---------------------------------------------------------------------------
# Harmonic-mean effect
# ---------------------------------------------------------------------------


def c_hm_binary(a, b, p):
    """Size-weighted harmonic mean of two hazard ratios.

    ``a``, ``b`` and ``p`` broadcast against each other as in
    :func:`solve_cpl_binary`: scalars give a float, arrays an array.
    Where ``p / a + (1 - p) / b`` overflows, it is taken in units of min(a, b).
    """
    _validate_binary_args(a, b, p)
    a, b, p = (np.asarray(v, dtype=float) for v in (a, b, p))
    lo = np.minimum(a, b)
    with np.errstate(over="ignore"):
        s = p / a + (1 - p) / b
        out = np.where(np.isfinite(s), 1.0 / s, lo / (p * (lo / a) + (1 - p) * (lo / b)))
    return float(out) if out.ndim == 0 else out


def _binary_definitions(a, b, p, q) -> dict:
    """The four binary combined effects at (a, b, p, q), which broadcast:
    ``c_hm``, ``c_pl``, ``exp_theta_l`` (the size-weighted geometric mean)
    and ``c_l`` (the size-weighted arithmetic mean)."""
    return {
        "c_hm": c_hm_binary(a, b, p),
        "c_pl": solve_cpl_binary(a, b, p, q),
        "exp_theta_l": a**p * b ** (1 - p),
        "c_l": p * a + (1 - p) * b,
    }


def _hm_equation(theta, effects, weights, dist):
    """Minus ``analysis.kl_objective``, its gradient R(theta), dR/dtheta and each dR/dbeta_j."""
    z = dist.support
    et = dist.probs * np.exp(z @ theta)
    ws = [et * w * np.exp(-z @ beta) for w, beta in zip(weights, effects)]
    ds = [(z * w[:, None]).T @ z for w in ws]
    mix = sum(ws)
    return mix.sum() - theta @ dist.mean, mix @ z - dist.mean, sum(ds), [-d for d in ds]


def _hm_root(effects, weights, dist):
    _check_span(dist.support, dist.k)
    start = sum(w * beta for w, beta in zip(weights, effects))
    return _newton_min(lambda t: _hm_equation(t, effects, weights, dist)[:3], start, _HM_TOL)


def solve_theta_hm_general(alpha, beta, p: float, dist: CovariateDistribution) -> np.ndarray:
    """Harmonic-mean combined log hazard ratio, general covariates.

    Solves E(Z) = E[e^{theta'Z} Z (p e^{-alpha'Z} + (1-p) e^{-beta'Z})],
    the score equation of an exponential working model fitted to the
    two-trial mixture; for a binary arm indicator the solution reduces to
    the log of the size-weighted harmonic mean, independent of the arm
    probability.  The score is the gradient of minus ``kl_objective``,
    strictly convex wherever the support spans k dimensions, so the
    solution is its unique minimiser; a support that does not raises
    SingularMatrixError.  Newton with Armijo backtracking runs from
    p*alpha + (1-p)*beta to a score max-norm of 1e-12.
    """
    return _hm_root(*_trial_lists(alpha, beta, p, dist), dist)


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
    _validate_binary_args(a_hat, b_hat, p)
    if not (0 <= var_a < math.inf and 0 <= var_b < math.inf):
        raise ValueError("variances must be nonnegative and finite")
    # in units of min(a_hat, b_hat), which the ratio does not see: no overflow
    lo = min(a_hat, b_hat)
    ia, ib = lo / a_hat, lo / b_hat
    num = p**2 * ia**2 * var_a + (1 - p) ** 2 * ib**2 * var_b
    den = (p * ia + (1 - p) * ib) ** 2
    return num / den


def var_theta_hm_general(aggregates, dist: CovariateDistribution) -> np.ndarray:
    """Delta-method covariance of the general harmonic-mean effect.

    It is the implicit-function sandwich :func:`theta_hm_estimate` attaches;
    for k = 1 binary covariates it equals the closed-form variance.
    """
    return theta_hm_estimate(aggregates, dist).covariance


def theta_hm_estimate(aggregates, dist: CovariateDistribution) -> CombinedEffect:
    """Harmonic-mean effect of m >= 2 trials by size share, with delta-method covariance."""
    _check_aggregates(aggregates, dist)
    effects = [a.beta_hat for a in aggregates]
    weights = _size_shares([a.size for a in aggregates])
    theta = _hm_root(effects, weights, dist)
    _, _, jac, d_inputs = _hm_equation(theta, effects, weights, dist)
    cov = _sandwich(jac, d_inputs, [a.covariance for a in aggregates])
    return CombinedEffect(CombineMethod.HARMONIC_MEAN, theta, cov, weights[0])


def wald_test(effect: CombinedEffect, null_value: float = 0.0, component: int = 0) -> WaldResult:
    """Two-sided normal Wald test of one component of a combined effect."""
    if not math.isfinite(null_value):
        raise ValueError("null_value must be finite")
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
