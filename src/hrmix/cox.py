"""Cox proportional-hazards fitting by maximum partial likelihood.

Implements the Newton solver for the log partial likelihood with the
Breslow convention for ties, the observed-information covariance, and the
Breslow step estimate of the baseline cumulative hazard.  The solver fits
a batch of equal-size datasets at once, one per row: every row keeps its
own convergence test, step-halving and failure checks, and no row's
arithmetic depends on another, so a row fits to the same bits alone or in
any batch.  Risk-set sums are running sums down each row in descending
time, read at the end of each tie block (Therneau & Grambsch 2000,
ch. 3).  :func:`fit_cox` is the one-row case; the censoring sweep fits a
chunk of replicates per call, which removes the per-fit interpreter
overhead that dominates a fit on a few hundred subjects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import TrialDataset
from .errors import DegenerateDataError, HrmixError, NonConvergenceError
from .numerics import SolveReport

__all__ = ["CoxFit", "CoxRows", "BreslowCurve", "fit_cox", "fit_cox_rows", "breslow_cumhaz"]

# |beta| beyond this is treated as a monotone partial likelihood
# (perfect separation); e^50 exceeds any plausible hazard ratio.
_DIVERGENCE_BOUND = 50.0
_MAX_HALVINGS = 25

# Row failure codes of the batched fit, with the error each one raises.
_NO_EVENTS, _NO_CONTRAST, _SINGULAR, _DIVERGED, _NOT_CONVERGED, _COLLAPSED = range(1, 7)
_FAILURES = {
    _NO_EVENTS: (DegenerateDataError, "no observed events"),
    _NO_CONTRAST: (DegenerateDataError, "all covariate vectors are identical"),
    _SINGULAR: (
        DegenerateDataError,
        "singular information matrix (no contrast within risk sets)",
    ),
    _DIVERGED: (
        DegenerateDataError,
        "beta diverged beyond 50: a covariate separates events perfectly",
    ),
    _NOT_CONVERGED: (
        NonConvergenceError,
        "score norm {resid:.3e} above tolerance after {iters} iterations",
    ),
    _COLLAPSED: (
        DegenerateDataError,
        "observed information collapsed: a covariate separates events perfectly",
    ),
}


@dataclass(frozen=True)
class CoxFit:
    """Fitted log hazard ratios with observed-information covariance."""

    beta_hat: np.ndarray
    covariance: np.ndarray
    log_partial_likelihood: float
    n_events: int
    report: SolveReport


@dataclass(frozen=True)
class CoxRows:
    """Per-row results of :func:`fit_cox_rows` for R datasets with k covariates.

    ``failure[r]`` is 0 for a fitted row; otherwise row r failed and
    :meth:`error` gives the exception :func:`fit_cox` raises on the same
    data.  The numeric fields of a failed row carry no meaning.
    ``iterations`` counts Newton steps and ``residual`` is the final
    max-norm of the score.
    """

    beta_hat: np.ndarray  # (R, k)
    covariance: np.ndarray  # (R, k, k)
    log_partial_likelihood: np.ndarray  # (R,)
    n_events: np.ndarray  # (R,)
    residual: np.ndarray  # (R,)
    iterations: np.ndarray  # (R,)
    failure: np.ndarray  # (R,)

    @property
    def ok(self) -> np.ndarray:
        return self.failure == 0

    def error(self, r: int) -> HrmixError | None:
        code = int(self.failure[r])
        if code == 0:
            return None
        cls, message = _FAILURES[code]
        return cls(message.format(resid=self.residual[r], iters=self.iterations[r]))


@dataclass(frozen=True)
class BreslowCurve:
    """Step estimate of the baseline cumulative hazard.

    ``increments[i]`` is the jump at ``event_times[i]`` (number of events
    there divided by the risk-set sum of exp(beta' Z)); ``cumulative`` is
    the running sum.
    """

    event_times: np.ndarray
    increments: np.ndarray
    cumulative: np.ndarray


class _RiskSets:
    """Tie-block structure of R equal-size datasets, each in descending time.

    The risk set of an event is every subject in its own tie block and in
    all earlier (larger-time) blocks, so a risk-set sum is a running sum
    along the row read at the block's last position.  Only blocks with
    events enter the likelihood: ``ends`` holds their last positions as
    flat indices into an (R, n) array, ``d`` their event counts and
    ``row`` their rows.  Per-row sums go through ``np.bincount``, which
    adds each row's terms in order, so a row's sums never depend on the
    other rows.
    """

    def __init__(self, t: np.ndarray, d: np.ndarray, z: np.ndarray):
        # t, d: (R, n); z: (k, R, n), each row sorted by descending time
        self.shape = t.shape
        self.z = z
        n = t.shape[1]
        last = np.empty(t.shape, dtype=bool)
        np.not_equal(t[:, 1:], t[:, :-1], out=last[:, :-1])
        last[:, -1] = True
        block_end = np.flatnonzero(last)
        # every row ends a block, so a count running over the flattened
        # batch differences to each block's own events, even across rows
        counts = np.diff(np.cumsum(d, axis=None)[block_end], prepend=0)
        has = counts > 0
        self.ends = block_end[has]
        self.d = counts[has].astype(float)
        self.row = self.ends // n
        self.n_events = d.sum(axis=1)
        events = np.flatnonzero(d)
        self.z_event_sum = np.array(
            [self._by_row(zj.ravel()[events], events // n) for zj in z]
        ).reshape(len(z), self.shape[0]).T

    def _by_row(self, values, rows=None):
        return np.bincount(self.row if rows is None else rows, values, self.shape[0])

    def linear_predictor(self, beta: np.ndarray) -> np.ndarray:
        eta = self.z[0] * beta[:, 0, None]
        for j in range(1, len(self.z)):
            eta += self.z[j] * beta[:, j, None]
        return eta

    def risk_sums(self, values: np.ndarray) -> np.ndarray:
        """Risk-set sums of per-subject ``values`` at the event blocks."""
        return np.cumsum(values, axis=1).ravel()[self.ends]

    def loglik_score_info(self, beta: np.ndarray):
        """Breslow log partial likelihood, score and observed information per row."""
        k = len(self.z)
        w = np.exp(self.linear_predictor(beta))
        s0 = self.risk_sums(w)
        ll = beta[:, 0] * self.z_event_sum[:, 0]
        for j in range(1, k):
            ll += beta[:, j] * self.z_event_sum[:, j]
        ll -= self._by_row(self.d * np.log(s0))
        score = np.empty((self.shape[0], k))
        info = np.empty((self.shape[0], k, k))
        wz = [w * zj for zj in self.z]
        zbar = [self.risk_sums(wzj) / s0 for wzj in wz]
        for j in range(k):
            score[:, j] = self.z_event_sum[:, j] - self._by_row(self.d * zbar[j])
            for m in range(j, k):
                spread = self.risk_sums(wz[j] * self.z[m]) / s0 - zbar[j] * zbar[m]
                info[:, j, m] = info[:, m, j] = self._by_row(self.d * spread)
        return ll, score, info


def _solve_rows(a: np.ndarray, b: np.ndarray):
    """Solve the stacked systems a[i] x[i] = b[i]; flag the singular ones.

    A batched solve raises on a singular matrix without saying which, so
    on failure every system is solved alone to find them.
    """
    try:
        return np.linalg.solve(a, b), np.zeros(len(a), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    x = np.zeros(b.shape)
    singular = np.zeros(len(a), dtype=bool)
    for i in range(len(a)):
        try:
            x[i] = np.linalg.solve(a[i], b[i])
        except np.linalg.LinAlgError:
            singular[i] = True
    return x, singular


def _newton(sets: _RiskSets, tol: float, max_iter: int) -> CoxRows:
    """Safeguarded Newton from beta = 0 on every row of ``sets``."""
    R = sets.shape[0]
    k = len(sets.z)
    failure = np.zeros(R, dtype=np.int8)
    n_events = sets.n_events
    failure[n_events == 0] = _NO_EVENTS
    no_contrast = np.all([zj.max(axis=1) == zj.min(axis=1) for zj in sets.z], axis=0)
    failure[(failure == 0) & no_contrast] = _NO_CONTRAST
    gtol = np.maximum(tol, 1e-12 * n_events)
    floor = 1e-8 * n_events
    beta = np.zeros((R, k))
    iterations = np.zeros(R, dtype=np.int64)
    prev_norm = np.full(R, np.inf)
    active = failure == 0
    with np.errstate(all="ignore"):
        ll, score, info = sets.loglik_score_info(beta)
        for it in range(1, max_iter + 1):
            norm = np.abs(score).max(axis=1)
            # converged, or stopped at the float64 cancellation floor: the
            # score no longer improves but sits far inside 1e-8 * n
            active &= ~(norm <= gtol)
            if it > 3:
                active &= ~((norm >= prev_norm) & (norm <= floor))
            if not active.any():
                break
            prev_norm = np.where(active, norm, prev_norm)
            rows = np.flatnonzero(active)
            solved, singular = _solve_rows(info[rows], score[rows, :, None])
            failure[rows[singular]] = _SINGULAR
            active[rows[singular]] = False
            iterations[active] += 1
            step = np.zeros((R, k))
            step[rows[~singular]] = solved[~singular, :, 0]
            # step-halving until the likelihood stops falling; the slack
            # sits above the float noise of a sum of n terms ~|ll|/n
            slack = 1e-10 * (1.0 + np.abs(ll))
            damp = np.ones(R)
            pending = active.copy()
            new = [beta.copy(), ll.copy(), score.copy(), info.copy()]
            for _ in range(_MAX_HALVINGS):
                trial_beta = beta + damp[:, None] * step
                trial = (trial_beta, *sets.loglik_score_info(trial_beta))
                for kept, value in zip(new, trial):
                    kept[pending] = value[pending]
                pending &= ~(np.isfinite(trial[1]) & (trial[1] >= ll - slack))
                if not pending.any():
                    break
                damp[pending] *= 0.5
            beta, ll, score, info = new
            diverged = active & ~(np.abs(beta).max(axis=1) <= _DIVERGENCE_BOUND)
            failure[diverged] = _DIVERGED
            active &= ~diverged
        residual = np.abs(score).max(axis=1)
        failure[(failure == 0) & ~(residual <= np.maximum(gtol, floor))] = _NOT_CONVERGED
        # a monotone likelihood can pass the score test at large |beta|
        # before the divergence wall: the information collapses there
        rows = np.flatnonzero(failure == 0)
        sym = 0.5 * (info[rows] + info[rows].transpose(0, 2, 1))
        smallest = np.full(rows.size, -np.inf)
        finite = np.isfinite(sym).all(axis=(1, 2))
        if finite.any():
            smallest[finite] = np.linalg.eigvalsh(sym[finite]).min(axis=1)
        failure[rows[~(smallest > floor[rows])]] = _COLLAPSED
    rows = np.flatnonzero(failure == 0)
    covariance = np.full((R, k, k), np.nan)
    inverse, singular = _solve_rows(info[rows], np.broadcast_to(np.eye(k), (rows.size, k, k)))
    failure[rows[singular]] = _SINGULAR
    covariance[rows] = 0.5 * (inverse + inverse.transpose(0, 2, 1))
    return CoxRows(
        beta_hat=beta,
        covariance=covariance,
        log_partial_likelihood=ll,
        n_events=n_events,
        residual=residual,
        iterations=iterations,
        failure=failure,
    )


def fit_cox_rows(times, events, covariates, tol: float = 1e-10, max_iter: int = 100) -> CoxRows:
    """Fit one Cox model per row of a batch of equal-size datasets.

    ``times`` and ``events`` are (R, n) and ``covariates`` (R, n, k) with
    k >= 1; each row must be sorted by descending time (ties in any
    order).  Every row runs the Newton iteration of :func:`fit_cox` with
    its own convergence mask and step-halving, and a row that
    :func:`fit_cox` would reject gets a nonzero ``failure`` code instead
    of raising, so one degenerate row never stops the others.
    """
    t = np.asarray(times, dtype=float)
    d = np.asarray(events)
    x = np.asarray(covariates, dtype=float)
    if t.ndim != 2 or d.shape != t.shape or x.ndim != 3 or x.shape[:2] != t.shape:
        raise ValueError("need (R, n) times and events and (R, n, k) covariates")
    if x.shape[2] == 0 or t.shape[1] == 0:
        raise ValueError("need at least one subject and one covariate")
    if not np.all((d == 0) | (d == 1)):
        raise ValueError("events must be 0 or 1")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(t))):
        raise ValueError("times and covariates must be finite")
    if not np.all(t[:, 1:] <= t[:, :-1]):
        raise ValueError("each row must be sorted by descending time")
    z = np.ascontiguousarray(np.moveaxis(x, 2, 0))
    return _newton(_RiskSets(t, d, z), tol, max_iter)


def _sorted_row(data: TrialDataset):
    """The dataset as one descending-time row: (1, n) times, events, (1, n, k)."""
    order = np.argsort(-data.times, kind="stable")
    return data.times[order][None], data.events[order][None], data.covariates[order][None]


def fit_cox(data: TrialDataset, tol: float = 1e-10, max_iter: int = 100) -> CoxFit:
    """Maximize the Cox partial likelihood over the log hazard ratios.

    Newton iteration from the zero vector with step-halving (the partial
    likelihood is concave, so safeguarded Newton suffices).  Convergence
    is declared on the max-norm of the score; the absolute tolerance is
    floored at 1e-12 per event because float64 cancellation limits how
    small a sum of n score terms can be driven.  This is the one-row
    case of :func:`fit_cox_rows`.

    Raises
    ------
    DegenerateDataError
        no covariates, no events, no covariate contrast, a singular
        information matrix, or a monotone likelihood from perfect
        separation (|beta| diverging past 50, or the information
        collapsing at the optimum).
    NonConvergenceError
        iteration budget exhausted with the score still above tolerance.
    """
    if data.k == 0:
        raise DegenerateDataError("no covariates to fit")
    rows = fit_cox_rows(*_sorted_row(data), tol=tol, max_iter=max_iter)
    error = rows.error(0)
    if error is not None:
        raise error
    beta = rows.beta_hat[0]
    return CoxFit(
        beta_hat=beta,
        covariance=rows.covariance[0],
        log_partial_likelihood=float(rows.log_partial_likelihood[0]),
        n_events=data.n_events,
        report=SolveReport(
            root=beta,
            residual_norm=float(rows.residual[0]),
            iterations=int(rows.iterations[0]),
            converged=True,
        ),
    )


def breslow_cumhaz(data: TrialDataset, beta_hat=None) -> BreslowCurve:
    """Breslow step estimate of the baseline cumulative hazard.

    The increment at an event time equals the number of events there
    divided by the risk-set sum of exp(beta_hat' Z).  With no covariates
    (k = 0) the linear predictor is zero and this reduces to the
    Nelson-Aalen estimate.
    """
    if beta_hat is None:
        beta_hat = np.zeros(data.k)
    beta_hat = np.atleast_1d(np.asarray(beta_hat, dtype=float))
    if beta_hat.shape != (data.k,):
        raise ValueError(f"beta_hat must have length {data.k}")
    t, d, x = _sorted_row(data)
    sets = _RiskSets(t, d, np.moveaxis(x, 2, 0))
    w = np.exp(sets.linear_predictor(beta_hat[None])) if data.k else np.ones(t.shape)
    # blocks are in descending time; flip to ascending for the curve
    increments = (sets.d / sets.risk_sums(w))[::-1]
    return BreslowCurve(
        event_times=t.ravel()[sets.ends][::-1],
        increments=increments,
        cumulative=np.cumsum(increments),
    )
